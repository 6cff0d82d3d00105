package core

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestEraseSetBasics(t *testing.T) {
	e := newEraseSet(10)
	if e.isErased(3) || e.erasedInRange(0, 10) != 0 {
		t.Fatal("fresh set must be empty")
	}
	e.eraseRange(3, 4)
	e.eraseRange(3, 4)
	if !e.isErased(3) || e.isErased(4) || e.isErased(2) {
		t.Fatal("bit state wrong")
	}
	if e.erasedInRange(0, 10) != 1 || e.erasedInRange(3, 4) != 1 || e.erasedInRange(4, 10) != 0 {
		t.Fatal("range counts wrong")
	}
	if e.erasedInRange(5, 5) != 0 || e.erasedInRange(7, 2) != 0 {
		t.Fatal("empty/inverted ranges must count zero")
	}
	e.eraseRange(6, 6)
	e.eraseRange(9, 2)
	if e.erasedInRange(0, 10) != 1 {
		t.Fatal("empty/inverted erases must not mark rows")
	}
}

// checkAgainstRef compares every row bit and a sweep of range counts
// against the boolean model.
func checkAgainstRef(t *testing.T, e *eraseSet, ref []bool, what string) {
	t.Helper()
	for row, want := range ref {
		if e.isErased(uint32(row)) != want {
			t.Fatalf("%s: isErased(%d) = %v, want %v", what, row, !want, want)
		}
	}
	n := len(ref)
	for _, lo := range []int{0, 1, 63, 64, 65, 127, 128, n / 2, n - 1, n} {
		for _, hi := range []int{lo, lo + 1, lo + 63, lo + 64, lo + 65, n} {
			if lo > n || hi > n || hi < lo {
				continue
			}
			want := 0
			for i := lo; i < hi; i++ {
				if ref[i] {
					want++
				}
			}
			if got := e.erasedInRange(uint32(lo), uint32(hi)); got != want {
				t.Fatalf("%s: erasedInRange(%d, %d) = %d, want %d", what, lo, hi, got, want)
			}
		}
	}
}

// TestEraseSetAgainstReference drives the bitset with range erases and
// range counts against a plain boolean slice, for sizes on and off a
// word boundary. Ranges are drawn both uniformly and from the shapes the
// word-wise kernel special-cases: empty, within one word, exactly one
// aligned word, and spanning a word boundary.
func TestEraseSetAgainstReference(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 128, 500} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(8 + n)))
			e := newEraseSet(n)
			ref := make([]bool, n)
			randRange := func() (int, int) {
				switch rng.Intn(5) {
				case 0: // empty
					lo := rng.Intn(n + 1)
					return lo, lo
				case 1: // exactly one aligned 64-row word
					if n >= 64 {
						lo := 64 * rng.Intn(n/64)
						return lo, lo + 64
					}
				case 2: // crosses a word boundary
					if n > 64 {
						b := 64 * (1 + rng.Intn((n-1)/64))
						return b - 1 - rng.Intn(min(b, 8)), min(n, b+1+rng.Intn(8))
					}
				case 3: // short, often inside one word
					lo := rng.Intn(n)
					return lo, min(n, lo+1+rng.Intn(6))
				}
				lo := rng.Intn(n)
				return lo, lo + rng.Intn(n-lo+1)
			}
			for op := 0; op < 2000; op++ {
				lo, hi := randRange()
				if rng.Intn(4) == 0 {
					e.eraseRange(uint32(lo), uint32(hi))
					for i := lo; i < hi; i++ {
						ref[i] = true
					}
					continue
				}
				want := 0
				for i := lo; i < hi; i++ {
					if ref[i] {
						want++
					}
				}
				if got := e.erasedInRange(uint32(lo), uint32(hi)); got != want {
					t.Fatalf("erasedInRange(%d, %d) = %d, want %d", lo, hi, got, want)
				}
			}
			checkAgainstRef(t, e, ref, "after random ops")
			e.eraseRange(0, uint32(n))
			for i := range ref {
				ref[i] = true
			}
			checkAgainstRef(t, e, ref, "after erasing all")
		})
	}
}
