package main

import (
	"math"
	"sort"

	xmlsearch "repro"
	"repro/internal/qlog"
)

// answer is one result as the oracle and the HTTP response both carry it.
type answer struct {
	Dewey string  `json:"Dewey"`
	Score float64 `json:"Score"`
	Level int     `json:"Level"`
}

func fromResults(rs []xmlsearch.Result) []answer {
	out := make([]answer, len(rs))
	for i, r := range rs {
		out[i] = answer{Dewey: r.Dewey, Score: r.Score, Level: r.Level}
	}
	return out
}

// scoreTol is the relative tolerance within which two scores are equal.
// A score is a sum of per-keyword contributions added in join order, and
// the join order follows list lengths, which differ per shard: a 4-shard
// index can return a score one unit in the last place away from the
// unsharded one. Such results are ties, not wrong answers.
const scoreTol = 1e-9

func near(a, b float64) bool {
	return math.Abs(a-b) <= scoreTol*math.Max(math.Abs(a), math.Abs(b))
}

// fingerprint is an order-insensitive digest of a result set: its size,
// the wrapping sum of the results' qlog hashes (so the Dewey set must
// match exactly), and a score sum weighted per result by its hash (so
// every result's score must match within scoreTol).
type fingerprint struct {
	n    int
	set  uint64
	wsum float64
}

func fingerprintOf(rs []answer) fingerprint {
	f := fingerprint{n: len(rs)}
	for _, r := range rs {
		h := uint64(qlog.NewHash().Result(r.Dewey, 0))
		f.set += h
		f.wsum += r.Score * (1 + float64(h%1024)/1024)
	}
	return f
}

func (f fingerprint) same(g fingerprint) bool {
	return f.n == g.n && f.set == g.set && near(f.wsum, g.wsum)
}

// canonical orders results by score (descending) and, among equal
// scores, by Dewey.
func canonical(rs []answer) []answer {
	out := append([]answer(nil), rs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Dewey < out[j].Dewey
	})
	return out
}

// expectation is what a correct answer to one request looks like, kept
// as a fingerprint so the oracle index can be dropped before the heap is
// measured. Every result scoring clearly above the cut must appear; the
// remaining slots of a truncated top-k answer may hold any of the results
// tied with the cut score, because which of several equal-score results
// takes the k-th slot is a tie-break, not a correctness property.
type expectation struct {
	n       int
	strict  fingerprint
	strictN int
	cut     float64
	ties    map[string]bool
}

// expect derives the expectation for a top-k request (k = 0: complete)
// from the oracle's complete answer.
func expect(all []answer, k int) expectation {
	all = canonical(all)
	if k == 0 || len(all) <= k {
		return expectation{n: len(all), strict: fingerprintOf(all), strictN: len(all)}
	}
	cut := all[k-1].Score
	e := expectation{n: k, cut: cut, ties: map[string]bool{}}
	for _, r := range all {
		switch {
		case near(r.Score, cut):
			e.ties[r.Dewey] = true
		case r.Score > cut:
			e.strictN++
		}
	}
	e.strict = fingerprintOf(all[:e.strictN])
	return e
}

// matches reports whether got is a correct answer: ranked by descending
// score, with the expected results and scores, ignoring the order among
// equal scores.
func (e expectation) matches(got []answer) bool {
	if len(got) != e.n {
		return false
	}
	for i := 1; i < len(got); i++ {
		if got[i].Score > got[i-1].Score && !near(got[i].Score, got[i-1].Score) {
			return false
		}
	}
	got = canonical(got)
	if !fingerprintOf(got[:e.strictN]).same(e.strict) {
		return false
	}
	seen := map[string]bool{}
	for _, r := range got[e.strictN:] {
		if !near(r.Score, e.cut) || !e.ties[r.Dewey] || seen[r.Dewey] {
			return false
		}
		seen[r.Dewey] = true
	}
	return true
}

// withoutRoot drops level-1 results: a sharded index never returns its
// synthetic per-shard roots (nor the document root), so the unsharded
// oracle's answer is compared without them.
func withoutRoot(rs []answer) []answer {
	out := rs[:0:0]
	for _, r := range rs {
		if r.Level > 1 {
			out = append(out, r)
		}
	}
	return out
}

// deweySet is a result set without scores, for comparing against a
// mirror whose scores legitimately differ (see ingest.go).
func deweySet(rs []xmlsearch.Result) map[string]bool {
	m := make(map[string]bool, len(rs))
	for _, r := range rs {
		m[r.Dewey] = true
	}
	return m
}

// symDiff counts the elements in exactly one of a and b.
func symDiff(a, b map[string]bool) int {
	n := 0
	for k := range a {
		if !b[k] {
			n++
		}
	}
	for k := range b {
		if !a[k] {
			n++
		}
	}
	return n
}
