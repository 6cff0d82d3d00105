package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	xmlsearch "repro"
	"repro/internal/obs"
	"repro/internal/obshttp"
)

// servedIndex is what a workload serves: *xmlsearch.Index or *Sharded.
type servedIndex interface {
	obshttp.Server
	SetTraceStore(*obs.TraceStore)
	Close() error
}

// timedSetup repeats set-up setupReps times — prep (untimed), then open
// the index and start the listener (timed) — and returns the last one
// with the median set-up time; earlier ones are torn down.
func timedSetup(prep func(rep int), open func(rep int) (servedIndex, error)) (servedIndex, *listener, float64, error) {
	var (
		durs []float64
		ix   servedIndex
		l    *listener
	)
	for rep := 0; rep < setupReps; rep++ {
		if l != nil {
			if err := l.close(); err != nil {
				return nil, nil, 0, err
			}
			if err := ix.Close(); err != nil {
				return nil, nil, 0, err
			}
			ix, l = nil, nil
		}
		if prep != nil {
			prep(rep)
		}
		runtime.GC()
		t0 := time.Now()
		x, err := open(rep)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("set-up: %w", err)
		}
		ln, err := serve(x, x)
		if err != nil {
			x.Close()
			return nil, nil, 0, err
		}
		durs = append(durs, time.Since(t0).Seconds())
		ix, l = x, ln
	}
	return ix, l, medianOf(durs), nil
}

// expectations computes the oracle answer of every distinct request with
// the complete join-based evaluation on ix, an index built independently
// of the served one. dropRoot applies the sharded contract (no level-1
// results).
func expectations(ix *xmlsearch.Index, distinct []request, dropRoot bool) (*checker, error) {
	exp := make([]expectation, len(distinct))
	for i, q := range distinct {
		rs, err := ix.Search(q.query, xmlsearch.SearchOptions{Semantics: semOf(q.sem)})
		if err != nil {
			return nil, fmt.Errorf("oracle %q: %w", q.query, err)
		}
		a := fromResults(rs)
		if dropRoot {
			a = withoutRoot(a)
		}
		exp[i] = expect(a, q.k)
	}
	return newChecker(exp), nil
}

func (r *runCtx) account(st *loadStats) {
	r.attempted += st.attempted
	r.failed += st.bad()
	if st.firstErr != nil {
		r.problem("%d of %d requests failed or were wrong; first: %v", st.bad(), st.attempted, st.firstErr)
	}
}

// markHeap records the live heap just before set-up: the corpus, the
// oracle's answers and any reference index the traced run keeps.
func (r *runCtx) markHeap() { r.heapBase = liveHeapMB() }

// warmup sends one checked pass and then records the growth of the live
// heap since markHeap: what the served index, its listener and the warm-up
// left live.
func (r *runCtx) warmup(c *client, pass []request, clients int, chk *checker) {
	r.account(closedLoop(c, pass, clients, chk, 0, 0, 0, nil))
	r.e2e("heap_mb", "MB", liveHeapMB()-r.heapBase, fmt.Sprintf("live heap after set-up and warm-up, minus %.1f MB live before set-up", r.heapBase))
}

// minQuerySamples lets the p99 rule hold: 10 samples beyond the 99th
// percentile.
const minQuerySamples = 1000

// measureQueries runs the untraced closed loop and reports the query
// metrics.
func (r *runCtx) measureQueries(c *client, pass []request, clients int, chk *checker) *loadStats {
	st := closedLoop(c, pass, clients, chk, r.cfg.seconds, 4*r.cfg.seconds, minQuerySamples, nil)
	r.account(st)
	r.queryRows(st, fmt.Sprintf("closed loop, %d clients", clients))
	return st
}

func (r *runCtx) queryRows(st *loadStats, how string) {
	s := summarize(st.latMs)
	r.e2e("query_p50_ms", "ms", s.median(), fmt.Sprintf("n=%d, %s, engines %v", s.n(), how, st.engines))
	p99, got := s.tail(0.99)
	note := fmt.Sprintf("n=%d", s.n())
	if got != 0.99 {
		note = fmt.Sprintf("n=%d too few for p99; this is p%.1f", s.n(), 100*got)
	}
	r.e2e("query_p99_ms", "ms", p99, note)
	r.e2e("query_qps", "1/s", st.qps(), fmt.Sprintf("%d answers in %.2f s", len(st.latMs), st.elapsed.Seconds()))
	r.note("query latency ms: p90 %.3f, p95 %.3f, p98 %.3f, p99 %.3f, p99.5 %.3f, max %.3f", s.at(0.9), s.at(0.95), s.at(0.98), s.at(0.99), s.at(0.995), s.at(1))
	r.e2e("query_fail_ratio", "ratio", ratio(int64(st.bad()), int64(st.attempted)), fmt.Sprintf("%d of %d", st.bad(), st.attempted))
}

// measureLayers is the traced run's read side: an untraced single-client
// pass for the baseline, then the traced replay.
func (r *runCtx) measureLayers(lt *layerTarget, c *client, pass []request, chk *checker) error {
	base := closedLoop(c, pass, 1, chk, r.cfg.seconds/4, r.cfg.seconds, 0, nil)
	r.account(base)
	r.queryRows(base, "1 client, untraced baseline of the traced run")
	lt.respBytes = base.respBytes
	lt.respN = base.attempted
	return lt.runTraced(c, pass, chk, summarize(base.latMs).median())
}

func (r *runCtx) writeRowsNA() {
	for _, m := range []metricDef{{"append_p50_ms", "ms"}, {"append_p90_ms", "ms"}, {"rewrite_p50_ms", "ms"}, {"write_fail_ratio", "ratio"}, {"recovery_s", "s"}} {
		r.na(m.name, m.unit, "no writes in this workload")
	}
}

func runTopK(r *runCtx) error {
	distinct, pass := topkMix(r.ds, r.cfg.seed)
	oracle, err := xmlsearch.FromDocument(r.ds.Doc.Clone())
	if err != nil {
		return err
	}
	dir := filepath.Join(r.dir, "index")
	if err := oracle.Save(dir); err != nil {
		return err
	}
	chk, err := expectations(oracle, distinct, false)
	if err != nil {
		return err
	}
	oracle = nil
	size, err := dirBytes(dir)
	if err != nil {
		return err
	}
	r.markHeap()
	served, l, setup, err := timedSetup(nil, func(int) (servedIndex, error) { return xmlsearch.Load(dir) })
	if err != nil {
		return err
	}
	defer served.Close()
	defer l.close()
	r.e2e("setup_s", "s", setup, fmt.Sprintf("median of %d Load + listener start", setupReps))
	r.e2e("index_bytes_per_xml_byte", "ratio", float64(size)/float64(r.xmlBytes), fmt.Sprintf("%d index bytes", size))

	c := newClient(l.base, 2)
	defer c.close()
	r.warmup(c, pass, 2, chk)
	if !r.cfg.trace {
		r.measureQueries(c, pass, 2, chk)
		r.writeRowsNA()
		return nil
	}
	ix := served.(*xmlsearch.Index)
	lt, err := newLayerTarget(r, served, ix, false, dir)
	if err != nil {
		return err
	}
	if err := r.measureLayers(lt, c, pass, chk); err != nil {
		return err
	}
	lt.measureRegret(distinct)
	r.writeRowsNA()
	return nil
}

func runCompleteSharded(r *runCtx) error {
	distinct, pass := completeMix(r.ds, r.cfg.seed)
	// The oracle is unsharded: result fingerprints do not depend on the
	// shard count.
	ref, err := xmlsearch.FromDocument(r.ds.Doc.Clone())
	if err != nil {
		return err
	}
	chk, err := expectations(ref, distinct, true)
	if err != nil {
		return err
	}
	dir := filepath.Join(r.dir, "sharded")
	sh, err := xmlsearch.NewSharded(r.ds.Doc.Clone(), shardCount)
	if err != nil {
		return err
	}
	if err := sh.Save(dir); err != nil {
		return err
	}
	sh = nil
	size, err := dirBytes(dir)
	if err != nil {
		return err
	}
	refDir := filepath.Join(r.dir, "ref")
	if r.cfg.trace {
		if err := ref.Save(refDir); err != nil {
			return err
		}
	} else {
		ref = nil
	}
	r.markHeap()
	served, l, setup, err := timedSetup(nil, func(int) (servedIndex, error) { return xmlsearch.LoadSharded(dir) })
	if err != nil {
		return err
	}
	defer served.Close()
	defer l.close()
	r.e2e("setup_s", "s", setup, fmt.Sprintf("median of %d LoadSharded + listener start", setupReps))
	r.e2e("index_bytes_per_xml_byte", "ratio", float64(size)/float64(r.xmlBytes), fmt.Sprintf("%d index bytes, %d shards", size, shardCount))

	c := newClient(l.base, 2)
	defer c.close()
	r.warmup(c, pass, 2, chk)
	if !r.cfg.trace {
		r.measureQueries(c, pass, 2, chk)
		r.writeRowsNA()
		return nil
	}
	lt, err := newLayerTarget(r, served, ref, true, refDir)
	if err != nil {
		return err
	}
	if err := r.measureLayers(lt, c, pass, chk); err != nil {
		return err
	}
	r.writeRowsNA()
	return nil
}
