package xmlsearch

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestMaterializeJoinBoundedByK checks the K-bounded materialization
// against materializing every ranked row and then keeping the first k:
// rows whose node does not resolve are skipped and later rows fill in.
func TestMaterializeJoinBoundedByK(t *testing.T) {
	ix := open(t)
	s := ix.view()
	var rs []core.Result
	for i, n := range s.doc.Nodes {
		rs = append(rs, core.Result{Level: n.Level, Value: n.JD, Score: float64(100 - i)})
		if i == 1 {
			// A row whose node is gone, ranked inside the first k.
			rs = append(rs, core.Result{Level: 2, Value: 1 << 30, Score: 99.5})
		}
	}
	full := func(rs []core.Result) []Result {
		var out []Result
		for _, r := range rs {
			if n := s.nodeByJDewey(r.Level, r.Value); n != nil {
				out = append(out, materializeNode(n, r.Score))
			}
		}
		return out
	}
	for _, tc := range []struct {
		name string
		rs   []core.Result
		k    int
	}{
		{"k=0 keeps all", rs, 0},
		{"k=1", rs, 1},
		{"dead row inside first k", rs, 3},
		{"k=len", rs, len(rs)},
		{"k>len", rs, len(rs) + 5},
		{"only dead rows", rs[2:3], 2},
		{"empty", nil, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := s.materializeJoin(tc.rs, tc.k)
			want := truncate(full(tc.rs), tc.k)
			if len(got) == 0 && len(want) == 0 {
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("materializeJoin(k=%d) =\n%+v\nwant\n%+v", tc.k, got, want)
			}
		})
	}
}

// joinPlannedDoc has 320 titles that each contain both "alpha" and
// "beta", among enough filler elements that the planner's independence
// estimate expects fewer than ten results: a top-10 query for "alpha beta"
// plans the complete join and sorts after it.
func joinPlannedDoc() string {
	var b strings.Builder
	b.WriteString("<lib>")
	for i := 0; i < 320; i++ {
		fmt.Fprintf(&b, "<paper><title>alpha beta%s</title></paper>", strings.Repeat(" gamma", i%7))
	}
	for i := 0; i < 12000; i++ {
		b.WriteString("<f/>")
	}
	b.WriteString("</lib>")
	return b.String()
}

// TestTopKJoinPlannedAllocs checks that a top-K query planned onto the
// complete join materializes only the results it returns: with 320
// results and k=10 it must allocate at least 300 objects fewer than the
// complete Search of the same query. (Explicit AlgoJoin top-K runs the
// star join, so the plan is reached through AlgoAuto and asserted.)
func TestTopKJoinPlannedAllocs(t *testing.T) {
	ix := mustIndex(t, joinPlannedDoc())
	const q = "alpha beta"
	auto := SearchOptions{Algorithm: AlgoAuto}
	if p, err := ix.Plan(q, 10, auto); err != nil || p.Engine != "join" {
		t.Fatalf("plan = %+v, %v; want the complete join", p, err)
	}
	all, err := ix.Search(q, SearchOptions{})
	if err != nil || len(all) < 300 {
		t.Fatalf("Search returned %d results (%v), want at least 300", len(all), err)
	}
	top, err := ix.TopK(q, 10, auto)
	if err != nil || !reflect.DeepEqual(top, all[:10]) {
		t.Fatalf("TopK = %+v (%v), want the first 10 of Search", top, err)
	}
	search := testing.AllocsPerRun(20, func() { ix.Search(q, SearchOptions{}) })
	topK := testing.AllocsPerRun(20, func() { ix.TopK(q, 10, auto) })
	if search-topK < 300 {
		t.Fatalf("TopK allocates %.0f objects, Search %.0f: want at least 300 fewer", topK, search)
	}
}
