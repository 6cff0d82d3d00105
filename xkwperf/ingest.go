package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	xmlsearch "repro"
	"repro/internal/dewey"
	"repro/internal/xmltree"
)

// The ingest writer. Its mutations are chosen so that they never change
// the reader's answers — appended and inserted leaves carry only marker
// words absent from the corpus (a common marker plus a unique one per
// write, e.g. "ingestnote ingestnote17"), interior leaves go after the last
// child of their parent (shifting no existing Dewey ID), and a removal
// only takes back the previous interior insert — so every read under
// writes is still checked against the oracle. The marker words make the
// writes themselves checkable: a lost or extra write changes the answer
// to a marker query.
//
// The run has two phases, each a fixed open-loop schedule, so every run
// offers the same writes:
//
//   - rewrites: one interior insert, then its removal, while a batch of
//     tail appends goes in every appendEvery. Each rewrite materializes the
//     whole snapshot (1.4–3 s alone on a 2-CPU box at scale 1.0, 3–8 s
//     beside the reader and the compactor) and holds up the appends due
//     meanwhile. Reads go on and are checked, but their latency is left
//     out of the query metrics: how long the materialization takes varies
//     by seconds from run to run, and reads timed across it would not
//     repeat.
//   - appends: the append stream alone, with background compaction, from
//     the start of the measured reads until the reader's loop returns (at
//     least the run's measured time: 100 batches at 20 s, enough for the
//     p90 rule). The query metrics are the reads of this phase, all of
//     them taken with the writer running.
//
// The append stream, 4 mutations every 200 ms, is a rate the background
// compaction keeps up with: it folds the whole corpus (1–2.5 s on a 2-CPU
// box) every 64 mutations. At twice the rate it falls behind, the delta
// grows until a fold lands, and read latency swings by a third from run
// to run with how many folds happened to complete.
const (
	appendBatch   = 4                      // tail appends per acked batch (one WAL group commit)
	appendEvery   = 200 * time.Millisecond // open-loop period of the append batches
	rewriteEvery  = 500 * time.Millisecond // the two rewrites are due 0.5 s and 1 s into their phase
	rewriteSpan   = 1100 * time.Millisecond
	appendMarker  = "ingestnote"
	rewriteMarker = "ingestinner"
)

type writer struct {
	ix       *xmlsearch.Index
	rootKids int
	rng      *rand.Rand
	papers   []*xmltree.Node // interior insert targets (not in the last top-level subtree)

	appended int
	pending  string // Dewey of the interior leaf the next rewrite removes
	seq      int

	acked     []xmlsearch.Mutation // in acknowledgement order, IDs as applied
	attempted int
	errors    int
	firstErr  error
	userBytes int64
}

func newWriter(ix *xmlsearch.Index, doc *xmltree.Document, seed int64) *writer {
	last := len(doc.Root.Children)
	var papers []*xmltree.Node
	for _, n := range doc.NodesAtLevel(4) {
		if int(n.Dewey[1]) != last {
			papers = append(papers, n)
		}
	}
	return &writer{ix: ix, rootKids: last, rng: rand.New(rand.NewSource(seed)), papers: papers}
}

// run executes one schedule until it is exhausted or stop is closed (a
// nil stop never is), timing every operation from when it was due.
func (w *writer) run(s schedule, stop <-chan struct{}) []dueSample {
	var samples []dueSample
	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for {
		kind, due, ok := s.next()
		if !ok {
			return samples
		}
		timer.Reset(time.Until(start.Add(due)))
		select {
		case <-stop:
			return samples
		case <-timer.C:
		}
		began := time.Now()
		w.do(kind)
		samples = append(samples, account(kind, start, due, began, time.Now()))
	}
}

// runAsync runs a schedule on its own goroutine; running reports (by
// returning false) once it has finished, and wait returns its samples.
func (w *writer) runAsync(s schedule, stop <-chan struct{}) (running func() bool, wait func() []dueSample) {
	var finished atomic.Bool
	ch := make(chan []dueSample, 1)
	go func() {
		samples := w.run(s, stop)
		finished.Store(true)
		ch <- samples
	}()
	return func() bool { return !finished.Load() }, func() []dueSample { return <-ch }
}

func (w *writer) fail(n int, err error) {
	w.errors += n
	if w.firstErr == nil {
		w.firstErr = err
	}
}

func (w *writer) do(kind opKind) {
	if kind == opAppend {
		muts := make([]xmlsearch.Mutation, appendBatch)
		for i := range muts {
			muts[i] = xmlsearch.Mutation{ID: "1", Pos: w.rootKids + w.appended + i, Tag: "inote",
				Text: fmt.Sprintf("%s %s%d", appendMarker, appendMarker, w.appended+i)}
			w.userBytes += int64(len(muts[i].Tag) + len(muts[i].Text))
		}
		w.attempted += len(muts)
		if _, err := w.ix.ApplyBatch(muts); err != nil {
			w.fail(len(muts), fmt.Errorf("append batch: %w", err))
			return
		}
		w.acked = append(w.acked, muts...)
		w.appended += len(muts)
		return
	}
	w.attempted++
	if w.pending != "" {
		w.userBytes += int64(len(w.pending))
		if err := w.ix.RemoveElement(w.pending); err != nil {
			w.fail(1, fmt.Errorf("remove %s: %w", w.pending, err))
			return
		}
		w.acked = append(w.acked, xmlsearch.Mutation{Remove: true, ID: w.pending})
		w.pending = ""
		return
	}
	p := w.papers[w.rng.Intn(len(w.papers))]
	m := xmlsearch.Mutation{ID: p.Dewey.String(), Pos: len(p.Children), Tag: "inner", Text: fmt.Sprintf("%s %s%d", rewriteMarker, rewriteMarker, w.seq)}
	w.seq++
	w.userBytes += int64(len(m.Tag) + len(m.Text))
	id, err := w.ix.InsertElement(m.ID, m.Pos, m.Tag, m.Text)
	if err != nil {
		w.fail(1, fmt.Errorf("insert under %s: %w", m.ID, err))
		return
	}
	w.acked = append(w.acked, m)
	w.pending = id
}

// mirror applies the acknowledged mutations directly to a copy of the
// corpus tree — not through the index's write path — and builds a fresh
// index from it.
func mirror(doc *xmltree.Document, acked []xmlsearch.Mutation) (*xmlsearch.Index, error) {
	for _, m := range acked {
		id, err := dewey.Parse(m.ID)
		if err != nil {
			return nil, err
		}
		n := doc.NodeByDewey(id)
		if n == nil {
			return nil, fmt.Errorf("mirror: no node %s", m.ID)
		}
		if m.Remove {
			p := n.Parent
			for i, c := range p.Children {
				if c == n {
					p.Children = append(p.Children[:i], p.Children[i+1:]...)
					break
				}
			}
			continue
		}
		if m.Pos > len(n.Children) {
			return nil, fmt.Errorf("mirror: position %d under %s out of range", m.Pos, m.ID)
		}
		child := &xmltree.Node{Tag: m.Tag, Text: m.Text, Parent: n}
		n.Children = append(n.Children, nil)
		copy(n.Children[m.Pos+1:], n.Children[m.Pos:])
		n.Children[m.Pos] = child
	}
	doc.Refresh()
	return xmlsearch.FromDocument(doc)
}

// durability compares ix with the mirror: the marker queries' result sets
// (one element per acknowledged write still present) and the complete
// result set of every reader query. Scores are not compared: the index
// keeps its idf corpus constant frozen at construction while a fresh
// index uses the current node count, so only result identities are
// comparable. It returns the number of lost or extra writes and of
// reader queries whose result set differs.
func durability(ix, mir *xmlsearch.Index, distinct []request) (lost, queries int, err error) {
	for _, q := range []string{appendMarker, rewriteMarker} {
		a, err := ix.Search(q, xmlsearch.SearchOptions{})
		if err != nil {
			return 0, 0, fmt.Errorf("marker %q: %w", q, err)
		}
		b, err := mir.Search(q, xmlsearch.SearchOptions{})
		if err != nil {
			return 0, 0, fmt.Errorf("mirror marker %q: %w", q, err)
		}
		lost += symDiff(deweySet(a), deweySet(b))
	}
	for _, q := range distinct {
		opt := xmlsearch.SearchOptions{Semantics: semOf(q.sem)}
		a, err := ix.Search(q.query, opt)
		if err != nil {
			return 0, 0, fmt.Errorf("%q: %w", q.query, err)
		}
		b, err := mir.Search(q.query, opt)
		if err != nil {
			return 0, 0, fmt.Errorf("mirror %q: %w", q.query, err)
		}
		if symDiff(deweySet(a), deweySet(b)) != 0 {
			queries++
		}
	}
	return lost, queries, nil
}

// deltaSampler polls the delta segment's length while the writer runs
// (traced run only) and keeps its maximum.
type deltaSampler struct {
	stop   chan struct{}
	wg     sync.WaitGroup
	maxOps int64
}

func startDeltaSampler(ix *xmlsearch.Index) *deltaSampler {
	s := &deltaSampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			if d := ix.Stats().Gauges.DeltaOps; d > s.maxOps {
				s.maxOps = d
			}
		}
	}()
	return s
}

func (s *deltaSampler) close() {
	close(s.stop)
	s.wg.Wait()
}

func runIngest(r *runCtx) error {
	distinct, pass := topkMix(r.ds, r.cfg.seed)
	oracle, err := xmlsearch.FromDocument(r.ds.Doc.Clone())
	if err != nil {
		return err
	}
	chk, err := expectations(oracle, distinct, false)
	if err != nil {
		return err
	}
	refDir := filepath.Join(r.dir, "ref")
	if r.cfg.trace {
		if err := oracle.Save(refDir); err != nil {
			return err
		}
	}
	oracle = nil

	var clone *xmltree.Document
	r.markHeap()
	walDir := func(rep int) string { return filepath.Join(r.dir, fmt.Sprintf("wal-%d", rep)) }
	served, l, setup, err := timedSetup(
		func(int) { clone = r.ds.Doc.Clone() },
		func(rep int) (servedIndex, error) {
			ix, err := xmlsearch.FromDocument(clone)
			if err != nil {
				return nil, err
			}
			if err := ix.EnableWAL(walDir(rep)); err != nil {
				return nil, err
			}
			return ix, nil
		})
	if err != nil {
		return err
	}
	clone = nil
	ix := served.(*xmlsearch.Index)
	dir := walDir(setupReps - 1)
	for rep := 0; rep < setupReps-1; rep++ {
		os.RemoveAll(walDir(rep))
	}
	lOpen := true
	defer func() {
		if lOpen {
			l.close()
		}
	}()
	r.e2e("setup_s", "s", setup, fmt.Sprintf("median of %d FromDocument + EnableWAL + listener start", setupReps))
	size, err := dirBytes(dir)
	if err != nil {
		return err
	}
	r.e2e("index_bytes_per_xml_byte", "ratio", float64(size)/float64(r.xmlBytes), fmt.Sprintf("%d bytes: base generation + empty WAL", size))

	c := newClient(l.base, 1)
	defer c.close()
	r.warmup(c, pass, 1, chk)

	var lt *layerTarget
	if r.cfg.trace {
		if lt, err = newLayerTarget(r, served, ix, false, refDir); err != nil {
			return err
		}
	}
	w := newWriter(ix, r.ds.Doc, r.cfg.seed)
	before := ix.Stats()
	var sampler *deltaSampler
	if r.cfg.trace {
		sampler = startDeltaSampler(ix)
	}
	wstart := time.Now()

	// The rewrites come first, with appends and checked reads going on;
	// the append phase that follows lets compaction fold them, so the
	// recovery at the end replays appends only, as it would after a crash
	// in steady ingest.
	writing, wait := w.runAsync(schedule{appendEvery: appendEvery, rewriteEvery: rewriteEvery, end: rewriteSpan}, nil)
	r.account(closedLoop(c, pass, 1, chk, 0, 4*r.cfg.seconds, 0, writing))
	rewrites := wait()
	// The measured reads, under the append stream, which runs until the
	// reader's loop returns: every measured read has writes beside it.
	stop := make(chan struct{})
	_, wait = w.runAsync(schedule{appendEvery: appendEvery}, stop)
	var readErr error
	if r.cfg.trace {
		readErr = r.measureLayers(lt, c, pass, chk)
	} else {
		r.measureQueries(c, pass, 1, chk)
	}
	close(stop)
	appends := wait()
	if readErr != nil {
		return readErr
	}
	window := time.Since(wstart)
	if sampler != nil {
		sampler.close()
	}
	after := ix.Stats()
	r.attempted += w.attempted
	writeFails := w.errors
	if w.firstErr != nil {
		r.problem("%d of %d mutations failed; first: %v", w.errors, w.attempted, w.firstErr)
	}

	var appendMs, rewriteMs, behindMs, lagMs []float64
	for _, s := range appends {
		appendMs = append(appendMs, ms(s.latency))
		lagMs = append(lagMs, ms(s.lag))
	}
	for _, s := range rewrites {
		lagMs = append(lagMs, ms(s.lag))
		if s.kind == opRewrite {
			rewriteMs = append(rewriteMs, ms(s.latency))
		} else {
			behindMs = append(behindMs, ms(s.latency))
		}
	}
	as := summarize(appendMs)
	r.e2e("append_p50_ms", "ms", as.median(), fmt.Sprintf("n=%d batches of %d, one every %v, timed from due", as.n(), appendBatch, appendEvery))
	p90, got := as.tail(0.9)
	note := fmt.Sprintf("n=%d", as.n())
	if got != 0.9 {
		note = fmt.Sprintf("n=%d too few for p90; this is p%.1f", as.n(), 100*got)
	}
	r.e2e("append_p90_ms", "ms", p90, note)
	r.e2e("rewrite_p50_ms", "ms", medianOf(rewriteMs), fmt.Sprintf("n=%d (interior insert, then its removal), timed from due", len(rewriteMs)))
	r.note("appends due during the rewrites: p50 %.1f ms from due (n=%d)", medianOf(behindMs), len(behindMs))
	r.layer["ingest.append_p50_ms"] = as.median()
	r.layer["ingest.append_p90_ms"] = p90
	r.layer["ingest.rewrite_p50_ms"] = medianOf(rewriteMs)
	r.layer["ingest.generator_lag_ms"] = summarize(lagMs).at(1)

	acked := int64(len(w.acked))
	r.layer["wal.fsyncs_per_mutation"] = ratio(after.WAL.Fsyncs-before.WAL.Fsyncs, acked)
	r.layer["wal.bytes_per_user_byte"] = ratio(after.WAL.Bytes-before.WAL.Bytes, w.userBytes)
	r.layer["delta.compactions"] = float64(after.Compaction.Runs - before.Compaction.Runs)
	r.layer["delta.compaction_busy_share"] = float64(after.Compaction.Nanos-before.Compaction.Nanos) / float64(window)
	if runs := after.Compaction.Runs - before.Compaction.Runs; runs > 0 {
		r.layer["delta.compaction_ms_mean"] = float64(after.Compaction.Nanos-before.Compaction.Nanos) / float64(runs) / 1e6
	}
	if sampler != nil {
		r.layer["delta.max_ops"] = float64(sampler.maxOps)
	}

	// Durability: the live index, then the recovered one, against the mirror.
	mir, err := mirror(r.ds.Doc.Clone(), w.acked)
	if err != nil {
		return err
	}
	lost, qs, err := durability(ix, mir, distinct)
	if err != nil {
		return err
	}
	if lost+qs > 0 {
		r.problem("live index vs mirror: %d lost or extra writes, %d reader queries differ", lost, qs)
	}
	writeFails += lost + qs
	if err := l.close(); err != nil {
		return err
	}
	lOpen = false
	if err := ix.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	loaded, err := xmlsearch.Load(dir)
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	recovery := time.Since(t0).Seconds()
	defer loaded.Close()
	r.e2e("recovery_s", "s", recovery, fmt.Sprintf("Load of base generation + WAL (%d records replayed)", loaded.Stats().WAL.ReplayedRecords))
	r.layer["ingest.recovery_s"] = recovery
	lost, qs, err = durability(loaded, mir, distinct)
	if err != nil {
		return err
	}
	if lost+qs > 0 {
		r.problem("recovered index vs mirror: %d lost or extra writes, %d reader queries differ", lost, qs)
	}
	writeFails += lost + qs
	// The recovered index must still give the oracle's scored answers.
	for _, q := range distinct {
		rs, err := loaded.TopK(q.query, q.k, xmlsearch.SearchOptions{Semantics: semOf(q.sem), Algorithm: algoOf(q.engine)})
		r.attempted++
		if err != nil || !chk.exp[q.id].matches(fromResults(rs)) {
			r.failed++
			r.problem("recovered index answers %q wrongly (%v)", q.query, err)
		}
	}
	r.failed += writeFails
	r.e2e("write_fail_ratio", "ratio", ratio(int64(writeFails), int64(w.attempted)), fmt.Sprintf("%d of %d mutations errored, lost or extra (checked live and after recovery)", writeFails, w.attempted))
	r.note("writer: %d acked mutations, %d compactions, max lag %.1f ms", acked, after.Compaction.Runs-before.Compaction.Runs, summarize(lagMs).at(1))
	return nil
}
