package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	samples := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	cases := []struct {
		n        int
		q        float64
		wantV    float64
		wantQ    float64
		resolved bool
	}{
		{n: 1000, q: 0.99, wantV: 990, wantQ: 0.99, resolved: true},
		{n: 999, q: 0.99, wantV: 989, wantQ: 1 - 10.0/999, resolved: false},
		{n: 100, q: 0.9, wantV: 90, wantQ: 0.9, resolved: true},
		{n: 80, q: 0.9, wantV: 70, wantQ: 0.875, resolved: false},
		{n: 8, q: 0.9, wantV: 4, wantQ: 0.5, resolved: false},
	}
	for _, c := range cases {
		s := summarize(samples(c.n))
		if got := s.resolvable(c.q); got != c.resolved {
			t.Errorf("n=%d q=%v: resolvable = %v, want %v", c.n, c.q, got, c.resolved)
		}
		v, q := s.tail(c.q)
		if v != c.wantV || q != c.wantQ {
			t.Errorf("n=%d q=%v: tail = (%v, p%v), want (%v, p%v)", c.n, c.q, v, q, c.wantV, c.wantQ)
		}
		// At least minBeyond samples lie beyond whatever tail is reported.
		if c.n > minBeyond {
			beyond := 0
			for _, x := range s.sorted {
				if x > v {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d q=%v: only %d samples beyond the reported tail", c.n, c.q, beyond)
			}
		}
	}
	if m := summarize([]float64{3, 1, 2}).median(); m != 2 {
		t.Errorf("median = %v, want 2", m)
	}
}

// TestOpenLoopDueTime drives the writer's schedule with fixed service
// times: a stall is charged, from the due time, to every operation it
// delays, and the generator lag shows how late each one started.
func TestOpenLoopDueTime(t *testing.T) {
	s := schedule{appendEvery: 100 * time.Millisecond, rewriteEvery: 250 * time.Millisecond, end: 550 * time.Millisecond}
	service := map[opKind]time.Duration{opAppend: 10 * time.Millisecond, opRewrite: 300 * time.Millisecond}
	start := time.Unix(0, 0)
	now := start
	var got []dueSample
	for {
		kind, due, ok := s.next()
		if !ok {
			break
		}
		if at := start.Add(due); now.Before(at) {
			now = at // the writer sleeps until the operation is due
		}
		began := now
		now = now.Add(service[kind])
		got = append(got, account(kind, start, due, began, now))
	}
	want := []struct {
		kind         opKind
		lag, latency time.Duration
	}{
		{opAppend, 0, 10 * time.Millisecond},                       // due 0
		{opAppend, 0, 10 * time.Millisecond},                       // due 100
		{opAppend, 0, 10 * time.Millisecond},                       // due 200
		{opRewrite, 0, 300 * time.Millisecond},                     // due 250, done 550
		{opAppend, 250 * time.Millisecond, 260 * time.Millisecond}, // due 300, ran 550–560
		{opAppend, 160 * time.Millisecond, 170 * time.Millisecond}, // due 400, ran 560–570
		{opAppend, 70 * time.Millisecond, 80 * time.Millisecond},   // due 500 (ties go to appends), ran 570–580
		{opRewrite, 80 * time.Millisecond, 380 * time.Millisecond}, // due 500, ran 580–880
	}
	if len(got) != len(want) {
		t.Fatalf("schedule offered %d operations before its end, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.kind != w.kind || g.lag != w.lag || g.latency != w.latency {
			t.Errorf("op %d: got kind %d lag %v latency %v, want kind %d lag %v latency %v", i, g.kind, g.lag, g.latency, w.kind, w.lag, w.latency)
		}
	}
	// With no end the append stream runs until the writer is stopped.
	open := schedule{appendEvery: 100 * time.Millisecond}
	for i := 0; i < 1000; i++ {
		if kind, due, ok := open.next(); !ok || kind != opAppend || due != time.Duration(i)*100*time.Millisecond {
			t.Fatalf("open-ended schedule, op %d: kind %d due %v ok %v", i, kind, due, ok)
		}
	}
}

func TestExpectationIgnoresOrderAmongEqualScores(t *testing.T) {
	all := []answer{
		{Dewey: "1.1", Score: 5}, {Dewey: "1.2", Score: 4}, {Dewey: "1.3", Score: 4},
		{Dewey: "1.4", Score: 3}, {Dewey: "1.5", Score: 3}, {Dewey: "1.6", Score: 3}, {Dewey: "1.7", Score: 1},
	}
	complete := expect(all, 0)
	swapped := []answer{all[0], all[2], all[1], all[5], all[3], all[4], all[6]}
	if !complete.matches(swapped) {
		t.Error("complete answer with ties reordered should match")
	}
	if complete.matches([]answer{all[1], all[0], all[2], all[3], all[4], all[5], all[6]}) {
		t.Error("answer not ranked by score should not match")
	}
	wrongScore := append([]answer(nil), all...)
	wrongScore[6].Score = 1.5
	if complete.matches(wrongScore) {
		t.Error("answer with a wrong score should not match")
	}
	wrongNode := append([]answer(nil), all...)
	wrongNode[6].Dewey = "1.8"
	if complete.matches(wrongNode) {
		t.Error("answer with a wrong node should not match")
	}
	if complete.matches(all[:6]) {
		t.Error("answer missing a result should not match")
	}
	ulp := append([]answer(nil), all...)
	ulp[1].Score = 4.000000000000001
	if !complete.matches(ulp) {
		t.Error("a score one unit in the last place away is a tie, not a wrong answer")
	}

	// Top-4: the cut falls inside the three-way tie at score 3, so any two
	// of 1.4, 1.5, 1.6 may fill the last two slots.
	top := expect(all, 4)
	for _, got := range [][]answer{
		{all[0], all[1], all[2], all[3]},
		{all[0], all[2], all[1], all[5]},
	} {
		if !top.matches(got) {
			t.Errorf("top-4 %v should match", got)
		}
	}
	for name, got := range map[string][]answer{
		"drops 1.3, which outranks the cut": {all[0], all[1], all[3], all[4]},
		"1.7 is below the cut":              {all[0], all[1], all[2], all[6]},
		"five results":                      {all[0], all[1], all[2], all[3], all[4]},
		"1.2 is not tied at the cut":        {all[0], all[1], all[2], {Dewey: "1.2", Score: 3}},
	} {
		if top.matches(got) {
			t.Errorf("top-4 should not match: %s", name)
		}
	}
	// Top-5 leaves two slots to the tie group; the same node may not fill both.
	if expect(all, 5).matches([]answer{all[0], all[1], all[2], all[3], all[3]}) {
		t.Error("a duplicated tie result should not match")
	}
}

func TestWithoutRoot(t *testing.T) {
	got := withoutRoot([]answer{{Dewey: "1", Level: 1}, {Dewey: "1.2", Level: 2}})
	if len(got) != 1 || got[0].Dewey != "1.2" {
		t.Errorf("withoutRoot = %v", got)
	}
}

func TestAutoRegret(t *testing.T) {
	auto := []float64{2, 5, 1}
	forced := [][]float64{{2, 3}, {4, 1, 9}, {1}}
	// Σ auto = 8, Σ fastest forced = 2 + 1 + 1 = 4.
	if got := autoRegret(auto, forced); got != 2 {
		t.Errorf("autoRegret = %v, want 2", got)
	}
	if got := autoRegret([]float64{1, 1}, [][]float64{{1}, {1}}); got != 1 {
		t.Errorf("a planner that always picks the fastest engine: regret %v, want 1", got)
	}
	if got := autoRegret(nil, nil); got != 0 {
		t.Errorf("no measurements: regret %v, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100, Allocs: 50},
		{ID: 1, Parent: 0, Start: 100, End: 130, Allocs: 20},
		{ID: 2, Parent: 0, Start: 130, End: 150, Allocs: 5},
		{ID: 3, Parent: 1, Start: 150, End: 160, Allocs: 1},
	}
	dur, allocs, _ := selfTimes(spans)
	want := []time.Duration{50, 20, 20, 10}
	for i, w := range want {
		if dur[i] != w {
			t.Errorf("span %d self = %v, want %v", i, dur[i], w)
		}
	}
	if allocs[0] != 25 || allocs[1] != 19 {
		t.Errorf("self allocs = %v", allocs)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// program emits in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, program %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
}

func TestCheckerVerifiesRepeatsByBytes(t *testing.T) {
	chk := newChecker([]expectation{expect([]answer{{Dewey: "1.2", Score: 2}, {Dewey: "1.3", Score: 1}}, 0)})
	good := []byte(`{"engine":"join","results":[{"Dewey":"1.2","Score":2},{"Dewey":"1.3","Score":1}]}`)
	bad := []byte(`{"engine":"join","results":[{"Dewey":"1.2","Score":2},{"Dewey":"1.4","Score":1}]}`)
	for i := 0; i < 2; i++ {
		if eng, ok := chk.check(0, good); !ok || eng != "join" {
			t.Errorf("pass %d: correct answer rejected (engine %q)", i, eng)
		}
		if _, ok := chk.check(0, bad); ok {
			t.Errorf("pass %d: wrong answer accepted", i)
		}
		if _, ok := chk.check(0, []byte(`{"engine":"join","results":[`)); ok {
			t.Errorf("pass %d: truncated reply accepted", i)
		}
	}
}
