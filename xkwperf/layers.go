package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	xmlsearch "repro"
	"repro/internal/bench"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/invindex"
	"repro/internal/ixlookup"
	"repro/internal/obs"
	"repro/internal/obshttp"
	"repro/internal/rdil"
	"repro/internal/stack"
	"repro/internal/topk"
)

// The traced run times the calls into each layer's public functions from
// the benchmark's own code; nothing inside the program is instrumented.
// For every request of the sequence it makes, one after another:
//
//	obshttp.search    the HTTP round trip (what a user sees)
//	shard.search      the Sharded facade call the handler makes (sharded only)
//	xmlsearch.search  the unsharded facade call (*Traced, as the handler calls it)
//	exec.plan         the planner call for the same query
//	colstore.open     opening the query's lists on a warm store
//	<engine>.eval     the engine the plan chose, called directly on those lists
//
// Each call re-executes the work its parent call contains, so it is
// recorded as the parent's child span and a layer's self time is its
// duration minus its children's, exactly as if the child had run inside.
// runtime.MemStats is read around every call (outside the timed interval),
// giving per-layer allocation counts and bytes.

// span is one timed call. Spans of one request share Req; Parent is -1
// for a request's root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Allocs uint64 `json:"allocs"`
	Bytes  uint64 `json:"bytes"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	epoch time.Time
	spans []span
	ms    runtime.MemStats
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, parent, req int) int {
	runtime.ReadMemStats(&t.ms)
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name, Allocs: t.ms.Mallocs, Bytes: t.ms.TotalAlloc})
	s := &t.spans[len(t.spans)-1]
	s.Start = int64(time.Since(t.epoch))
	return s.ID
}

func (t *tracer) end(id int) {
	end := int64(time.Since(t.epoch))
	runtime.ReadMemStats(&t.ms)
	s := &t.spans[id]
	s.End = end
	s.Allocs = t.ms.Mallocs - s.Allocs
	s.Bytes = t.ms.TotalAlloc - s.Bytes
}

// selfTimes derives every span's self time and self allocations: its own
// figures minus its children's.
func selfTimes(spans []span) (dur []time.Duration, allocs, bytes []int64) {
	dur = make([]time.Duration, len(spans))
	allocs = make([]int64, len(spans))
	bytes = make([]int64, len(spans))
	for i, s := range spans {
		dur[i] += s.dur()
		allocs[i] += int64(s.Allocs)
		bytes[i] += int64(s.Bytes)
		if s.Parent >= 0 {
			dur[s.Parent] -= s.dur()
			allocs[s.Parent] -= int64(s.Allocs)
			bytes[s.Parent] -= int64(s.Bytes)
		}
	}
	return dur, allocs, bytes
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

var errWrongAnswer = errors.New("answer differs from the oracle")

// layerTarget is what the traced run calls into.
type layerTarget struct {
	served obshttp.Server
	// unsharded is the Index whose facade, planner and engines stand
	// under served: served itself, or the reference index of a sharded run.
	unsharded *xmlsearch.Index
	sharded   bool
	// diskDir holds the unsharded index on disk; disk is a warm store
	// opened from it, and cold opens reopen it fresh.
	diskDir string
	disk    *colstore.Store
	env     *bench.Env // baseline engines' inverted lists, built on first use
	r       *runCtx

	respBytes int64 // /search response bytes seen, for resp_bytes_per_query
	respN     int
}

func newLayerTarget(r *runCtx, served obshttp.Server, unsharded *xmlsearch.Index, sharded bool, diskDir string) (*layerTarget, error) {
	disk, err := colstore.Open(diskDir)
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	disk.SetCache(colstore.NewCache(0))
	return &layerTarget{served: served, unsharded: unsharded, sharded: sharded, diskDir: diskDir, disk: disk, r: r}, nil
}

func algoOf(engine string) xmlsearch.Algorithm {
	if engine == "auto" {
		return xmlsearch.AlgoAuto
	}
	return xmlsearch.AlgoJoin
}

func semOf(s string) xmlsearch.Semantics {
	if s == "slca" {
		return xmlsearch.SLCA
	}
	return xmlsearch.ELCA
}

// engineCounts are the work counters a direct engine call reports.
type engineCounts struct{ results, pulled int }

// runTraced replays the sequence one request at a time with every layer
// call timed, for at least the run's measured time, then derives the
// per-layer metrics. baseP50 is the untraced single-client p50 of the
// same sequence, measured just before.
func (lt *layerTarget) runTraced(c *client, pass []request, chk *checker, baseP50 float64) error {
	t := newTracer()
	r := lt.r
	counts := map[int]engineCounts{}
	req := 0
	// One pass warms the calls the served path has not made yet (the
	// reference index and the benchmark's own store); its spans are dropped.
	for _, q := range pass {
		if err := lt.traceOne(t, c, q, chk, req, counts); err != nil {
			return err
		}
		req++
	}
	t.spans = t.spans[:0]
	before := lt.served.Stats()
	start := time.Now()
	for {
		for _, q := range pass {
			if err := lt.traceOne(t, c, q, chk, req, counts); err != nil {
				return err
			}
			req++
		}
		if time.Since(start) >= r.cfg.seconds {
			break
		}
	}
	after := lt.served.Stats()
	lt.coldOpens(t, pass)

	if err := t.write(filepath.Join(r.cfg.outDir, "spans", fmt.Sprintf("%s-seed%d.ndjson", r.cfg.workload, r.cfg.seed))); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	lt.derive(t, counts, baseP50)
	r.layer["exec.plan_cache_hit_ratio"] = ratio(after.Planner.CacheHits-before.Planner.CacheHits,
		after.Planner.CacheHits-before.Planner.CacheHits+after.Planner.CacheMisses-before.Planner.CacheMisses)
	r.layer["colstore.cache_hit_ratio"] = ratio(after.Store.CacheHits-before.Store.CacheHits,
		after.Store.CacheHits-before.Store.CacheHits+after.Store.CacheMisses-before.Store.CacheMisses)
	r.layer["obshttp.shed_total"] = float64(after.Serving.AdmissionRejected)
	return nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// traceOne makes one request's layer calls.
func (lt *layerTarget) traceOne(t *tracer, c *client, q request, chk *checker, req int, counts map[int]engineCounts) error {
	r := lt.r
	ctx := context.Background()
	opt := xmlsearch.SearchOptions{Semantics: semOf(q.sem), Algorithm: algoOf(q.engine)}
	facade := func(ix obshttp.Server) error {
		var err error
		if q.k == 0 {
			_, _, err = ix.SearchTraced(ctx, q.query, opt)
		} else {
			_, _, err = ix.TopKTraced(ctx, q.query, q.k, opt)
		}
		return err
	}

	root := t.begin("request", -1, req)
	sp := t.begin("obshttp.search", root, req)
	_, body, err := c.search(q)
	t.end(sp)
	r.attempted++
	lt.respBytes += int64(len(body))
	lt.respN++
	if err == nil {
		if _, ok := chk.check(q.id, body); !ok {
			err = errWrongAnswer
		}
	}
	if err != nil {
		r.failed++
		r.problem("traced %q k=%d sem=%s: %v", q.query, q.k, q.sem, err)
	}
	parent := sp
	if lt.sharded {
		parent = t.begin("shard.search", sp, req)
		err = facade(lt.served)
		t.end(parent)
		if err != nil {
			return err
		}
	}
	fac := t.begin("xmlsearch.search", parent, req)
	err = facade(lt.unsharded)
	t.end(fac)
	if err != nil {
		return err
	}
	p := t.begin("exec.plan", fac, req)
	plan, err := lt.unsharded.Plan(q.query, q.k, opt)
	t.end(p)
	if err != nil {
		return err
	}
	kws := xmlsearch.Keywords(q.query)
	cnt, err := lt.engine(t, fac, req, plan.Engine, kws, q)
	if err != nil {
		return err
	}
	t.end(root)
	counts[req] = cnt
	return nil
}

// engine calls the package the plan chose, directly, on lists opened
// from the warm store (colstore engines) or the inverted index (baseline
// engines, whose list fetch is part of their span).
func (lt *layerTarget) engine(t *tracer, parent, req int, name string, kws []string, q request) (engineCounts, error) {
	sem := semOf(q.sem)
	csem := core.ELCA
	if sem == xmlsearch.SLCA {
		csem = core.SLCA
	}
	var cnt engineCounts
	switch name {
	case "topk", "join", "hybrid":
		o := t.begin("colstore.open", parent, req)
		var col []*colstore.List
		var tk []*colstore.TKList
		if name != "topk" {
			col = lt.disk.Lists(kws, nil)
		}
		if name != "join" {
			tk = lt.disk.TopKLists(kws, nil)
		}
		t.end(o)
		switch name {
		case "topk":
			e := t.begin("topk.eval", parent, req)
			rs, st := topk.Evaluate(tk, topk.Options{Semantics: csem, K: q.k})
			t.end(e)
			cnt = engineCounts{results: len(rs), pulled: st.RowsPulled}
		case "join":
			e := t.begin("core.join", parent, req)
			rs, _ := core.Evaluate(col, core.Options{Semantics: csem})
			if q.k > 0 {
				core.SortByScore(rs)
			}
			t.end(e)
			cnt = engineCounts{results: len(rs)}
		case "hybrid":
			e := t.begin("hybrid.eval", parent, req)
			rs, _ := topk.EvaluateHybrid(col, tk, topk.HybridOptions{Semantics: csem, K: q.k})
			t.end(e)
			cnt = engineCounts{results: len(rs)}
		}
	case "stack", "ixlookup", "rdil":
		env := lt.baselineEnv()
		e := t.begin(name+".eval", parent, req)
		lists := make([]*invindex.List, len(kws))
		for i, w := range kws {
			lists[i] = env.Inv.Get(w)
		}
		switch name {
		case "stack":
			ss := stack.ELCA
			if sem == xmlsearch.SLCA {
				ss = stack.SLCA
			}
			rs, _ := stack.Evaluate(lists, ss, 0)
			cnt = engineCounts{results: len(rs)}
		case "ixlookup":
			is := ixlookup.ELCA
			if sem == xmlsearch.SLCA {
				is = ixlookup.SLCA
			}
			rs, _ := ixlookup.Evaluate(lists, is, 0)
			cnt = engineCounts{results: len(rs)}
		case "rdil":
			rs, _ := env.RDIL.TopK(kws, rdil.ELCA, 0, q.k)
			cnt = engineCounts{results: len(rs)}
		}
		t.end(e)
	default:
		return cnt, fmt.Errorf("plan chose unknown engine %q", name)
	}
	return cnt, nil
}

// baselineEnv builds the stack/ixlookup/RDIL inputs the first time the
// planner picks one of those engines.
func (lt *layerTarget) baselineEnv() *bench.Env {
	if lt.env == nil {
		ds := *lt.r.ds
		ds.Doc = ds.Doc.Clone()
		lt.env = bench.NewEnv(&ds)
	}
	return lt.env
}

// coldSamples is how many freshly reopened stores the cold-open metric
// samples.
const coldSamples = 24

// coldOpens reopens the on-disk store once per sample and times the first
// open of a query's lists on it: the decode a query pays when its lists
// are not in the decoded-list cache.
func (lt *layerTarget) coldOpens(t *tracer, pass []request) {
	r := lt.r
	var decoded, lists float64
	for i := 0; i < coldSamples && i < len(pass); i++ {
		q := pass[i]
		st, err := colstore.Open(lt.diskDir)
		if err != nil {
			r.problem("cold open: %v", err)
			return
		}
		st.SetCache(colstore.NewCache(0))
		var sc obs.StoreCounters
		st.SetObs(&sc)
		kws := xmlsearch.Keywords(q.query)
		s := t.begin("colstore.open_cold", -1, -1-i)
		if q.k > 0 {
			st.TopKLists(kws, nil)
		} else {
			st.Lists(kws, nil)
		}
		t.end(s)
		decoded += float64(sc.Snapshot().DecodedBytes)
		lists += float64(len(kws))
	}
	var cold []float64
	var allocs float64
	for _, s := range t.spans {
		if s.Name == "colstore.open_cold" {
			cold = append(cold, us(s.dur()))
			allocs += float64(s.Allocs)
		}
	}
	if len(cold) > 0 && lists > 0 {
		r.layer["colstore.open_cold_us_p50"] = medianOf(cold)
		r.layer["colstore.decoded_bytes_per_query"] = decoded / float64(len(cold))
		r.layer["colstore.allocs_per_open"] = allocs / lists
	}
}

// derive turns the spans into the per-layer metrics and the
// reconciliation against the untraced end-to-end p50.
func (lt *layerTarget) derive(t *tracer, counts map[int]engineCounts, baseP50 float64) {
	r := lt.r
	self, selfAllocs, selfBytes := selfTimes(t.spans)
	byName := map[string][]int{}
	for i, s := range t.spans {
		byName[s.Name] = append(byName[s.Name], i)
	}
	durs := func(name string, selfOnly bool) summary {
		var v []float64
		for _, i := range byName[name] {
			d := t.spans[i].dur()
			if selfOnly {
				d = self[i]
			}
			v = append(v, us(d))
		}
		return summarize(v)
	}
	meanOf := func(name string, pick func(i int) float64) float64 {
		ids := byName[name]
		if len(ids) == 0 {
			return 0
		}
		var s float64
		for _, i := range ids {
			s += pick(i)
		}
		return s / float64(len(ids))
	}
	allocsOf := func(i int) float64 { return float64(t.spans[i].Allocs) }
	bytesOf := func(i int) float64 { return float64(t.spans[i].Bytes) }
	resultsOf := func(i int) float64 { return float64(counts[t.spans[i].Req].results) }

	httpSelf := durs("obshttp.search", true)
	r.layer["obshttp.self_us_p50"] = httpSelf.median()
	facSelf := durs("xmlsearch.search", true)
	r.layer["xmlsearch.self_us_p50"] = facSelf.median()
	r.layer["xmlsearch.allocs_per_query"] = meanOf("xmlsearch.search", func(i int) float64 { return float64(selfAllocs[i]) })
	r.layer["xmlsearch.bytes_per_query"] = meanOf("xmlsearch.search", func(i int) float64 { return float64(selfBytes[i]) })
	shardSelf := durs("shard.search", true)
	r.layer["shard.overhead_us_p50"] = shardSelf.median()
	var ratios []float64
	for _, i := range byName["shard.search"] {
		if d := t.spans[i].dur() - self[i]; d > 0 {
			ratios = append(ratios, float64(t.spans[i].dur())/float64(d))
		}
	}
	r.layer["shard.overhead_ratio"] = medianOf(ratios)
	plan := durs("exec.plan", false)
	r.layer["exec.plan_us_p50"] = plan.median()
	open := durs("colstore.open", false)
	r.layer["colstore.open_warm_us_p50"] = open.median()

	join := durs("core.join", false)
	r.layer["core.join_us_p50"] = join.median()
	r.layer["core.join_us_p99"] = lt.tail99("core.join_us_p99", join)
	r.layer["core.results_per_query"] = meanOf("core.join", resultsOf)
	r.layer["core.allocs_per_query"] = meanOf("core.join", allocsOf)
	r.layer["core.bytes_per_query"] = meanOf("core.join", bytesOf)

	tk := durs("topk.eval", false)
	r.layer["topk.eval_us_p50"] = tk.median()
	r.layer["topk.eval_us_p99"] = lt.tail99("topk.eval_us_p99", tk)
	var pulled, results float64
	for _, i := range byName["topk.eval"] {
		c := counts[t.spans[i].Req]
		pulled += float64(c.pulled)
		results += float64(c.results)
	}
	if n := len(byName["topk.eval"]); n > 0 {
		r.layer["topk.candidates_per_query"] = pulled / float64(n)
	}
	if pulled > 0 {
		r.layer["topk.useful_ratio"] = results / pulled
	}
	r.layer["topk.allocs_per_query"] = meanOf("topk.eval", allocsOf)
	r.layer["topk.bytes_per_query"] = meanOf("topk.eval", bytesOf)
	engineSum := 0.0
	for _, name := range []string{"core.join", "topk.eval", "hybrid.eval", "stack.eval", "ixlookup.eval", "rdil.eval"} {
		s := durs(name, false)
		if name != "core.join" && name != "topk.eval" {
			r.layer[name+"_us_p50"] = s.median()
		}
		// The engine term of the reconciliation weighs each engine's
		// median by how often the plan picked it.
		if reqs := len(byName["obshttp.search"]); reqs > 0 {
			engineSum += s.median() * float64(s.n()) / float64(reqs)
		}
		if s.n() > 0 {
			r.note("%s: %d calls, p50 %.1f us", name, s.n(), s.median())
		}
	}
	if lt.respN > 0 {
		r.layer["obshttp.resp_bytes_per_query"] = float64(lt.respBytes) / float64(lt.respN)
	}

	http := durs("obshttp.search", false)
	traced := http.median() / 1000
	sum := (httpSelf.median() + shardSelf.median() + facSelf.median() + plan.median() + open.median() + engineSum) / 1000
	r.layer["trace.untraced_p50_ms"] = baseP50
	r.layer["trace.overhead_ms"] = traced - baseP50
	if baseP50 > 0 {
		r.layer["trace.reconcile_error"] = math.Abs(sum-baseP50) / baseP50
	}
	r.note("reconciliation: obshttp.self %.3f + shard.self %.3f + xmlsearch.self %.3f + exec.plan %.3f + colstore.open %.3f + engine %.3f = %.3f ms vs untraced p50 %.3f ms (error %.1f%%); traced round trip p50 %.3f ms, tracing overhead %.3f ms; %d spans",
		httpSelf.median()/1000, shardSelf.median()/1000, facSelf.median()/1000, plan.median()/1000, open.median()/1000, engineSum/1000,
		sum, baseP50, 100*r.layer["trace.reconcile_error"], traced, traced-baseP50, len(t.spans))
}

// tail99 applies the percentile rule to a per-layer p99, saying in the
// report when the sample is too small for it.
func (lt *layerTarget) tail99(name string, s summary) float64 {
	v, got := s.tail(0.99)
	if got != 0.99 && s.n() > 0 {
		lt.r.note("%s: n=%d too few for p99; reports p%.1f", name, s.n(), 100*got)
	}
	return v
}

// regretQueries is how many distinct queries exec.auto_regret times under
// every engine; regretReps the repetitions per (query, engine), medianed.
const (
	regretQueries = 16
	regretReps    = 3
)

// measureRegret times the planner's choice (auto) against every engine
// that can be forced for the query's shape, on the unsharded index.
func (lt *layerTarget) measureRegret(distinct []request) {
	ix := lt.unsharded
	ctx := context.Background()
	timeIt := func(q request, algo xmlsearch.Algorithm) float64 {
		opt := xmlsearch.SearchOptions{Semantics: semOf(q.sem), Algorithm: algo}
		call := func() error {
			var err error
			if q.k == 0 {
				_, err = ix.SearchContext(ctx, q.query, opt)
			} else {
				_, err = ix.TopKContext(ctx, q.query, q.k, opt)
			}
			return err
		}
		if err := call(); err != nil { // warm-up: lazily built baseline indexes
			lt.r.problem("regret %q under %v: %v", q.query, algo, err)
			return 0
		}
		var v []float64
		for i := 0; i < regretReps; i++ {
			t0 := time.Now()
			_ = call()
			v = append(v, float64(time.Since(t0)))
		}
		return medianOf(v)
	}
	var auto []float64
	var forced [][]float64
	for i := 0; i < regretQueries && i < len(distinct); i++ {
		q := distinct[(i*len(distinct))/regretQueries]
		algos := []xmlsearch.Algorithm{xmlsearch.AlgoJoin, xmlsearch.AlgoStack, xmlsearch.AlgoIndexLookup}
		if q.k > 0 {
			algos = append(algos, xmlsearch.AlgoRDIL, xmlsearch.AlgoHybrid)
		}
		auto = append(auto, timeIt(q, xmlsearch.AlgoAuto))
		var f []float64
		for _, a := range algos {
			f = append(f, timeIt(q, a))
		}
		forced = append(forced, f)
	}
	lt.r.layer["exec.auto_regret"] = autoRegret(auto, forced)
}
