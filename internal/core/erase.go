package core

import "math/bits"

// eraseSet tracks which rows of one inverted list have been erased by the
// semantic pruning (Section III-B/III-E). Rows sharing a column value are
// contiguous, so every operation is on a whole run [lo, hi): the pruning
// erases the run outright, "how many rows of this run are erased" decides
// ELCA output (|A_k| > Σ|B_i|), and "is any row of this run erased"
// decides SLCA output. A plain bitset answers all three word by word —
// full 64-row words are filled or popcounted in one step, only the two
// edge words need masks — so each range operation costs O(run/64), and
// each run is erased once over the whole evaluation.
type eraseSet struct {
	bits []uint64
}

func newEraseSet(n int) *eraseSet {
	return &eraseSet{bits: make([]uint64, (n+63)/64)}
}

func (e *eraseSet) isErased(row uint32) bool {
	return e.bits[row/64]&(1<<(row%64)) != 0
}

// rangeMasks splits [lo, hi) (lo < hi) into its first and last word
// indices and the masks selecting the range's bits within them.
func rangeMasks(lo, hi uint32) (wlo, whi uint32, mlo, mhi uint64) {
	wlo, whi = lo/64, (hi-1)/64
	mlo = ^uint64(0) << (lo % 64)
	mhi = ^uint64(0) >> (63 - (hi-1)%64)
	return wlo, whi, mlo, mhi
}

// eraseRange marks every row in [lo, hi) erased.
func (e *eraseSet) eraseRange(lo, hi uint32) {
	if hi <= lo {
		return
	}
	wlo, whi, mlo, mhi := rangeMasks(lo, hi)
	if wlo == whi {
		e.bits[wlo] |= mlo & mhi
		return
	}
	e.bits[wlo] |= mlo
	for w := wlo + 1; w < whi; w++ {
		e.bits[w] = ^uint64(0)
	}
	e.bits[whi] |= mhi
}

// erasedInRange returns the number of erased rows in [lo, hi).
func (e *eraseSet) erasedInRange(lo, hi uint32) int {
	if hi <= lo {
		return 0
	}
	wlo, whi, mlo, mhi := rangeMasks(lo, hi)
	if wlo == whi {
		return bits.OnesCount64(e.bits[wlo] & mlo & mhi)
	}
	n := bits.OnesCount64(e.bits[wlo]&mlo) + bits.OnesCount64(e.bits[whi]&mhi)
	for _, w := range e.bits[wlo+1 : whi] {
		n += bits.OnesCount64(w)
	}
	return n
}
