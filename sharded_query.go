package xmlsearch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/dewey"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/qlog"
	"repro/internal/shard"
)

// Scatter-gather query evaluation. Every entry point tokenizes once,
// fans the keywords out to every shard through the bounded worker pool,
// and merges the per-shard answers under the canonical result order
// (score desc, level desc, Dewey asc — exec.Compare). Shard-local Dewey
// identifiers are remapped to global ones by shifting the top-level
// component by the shard's child offset. Results rooted at a shard's
// synthetic root (level 1) are dropped, mirroring Corpus.
//
// Top-K additionally exchanges thresholds: the streaming path offers
// every shard result to a shared top-K score heap, and a shard whose
// next result scores strictly below the global K-th is cancelled — its
// remaining results descend in score, so none can displace the k
// already-offered better ones. Cancelling is therefore invisible in the
// answer; only genuinely aborted shards (deadline, budget) make the
// merged answer partial.

// mergedResult pairs a remapped result with its parsed Dewey identifier
// so the merge sort does not re-parse per comparison.
type mergedResult struct {
	res Result
	id  dewey.ID
}

// remapResult rewrites a shard-local result into global coordinates:
// shard-local Dewey "1.j.rest" becomes "1.(j+off).rest". It reports
// false for results to drop (the shard's synthetic root, level 1).
func remapResult(r Result, off int) (mergedResult, bool) {
	if r.Level <= 1 {
		return mergedResult{}, false
	}
	id, err := dewey.Parse(r.Dewey)
	if err != nil || len(id) < 2 {
		return mergedResult{}, false
	}
	id[1] += uint32(off)
	r.Dewey = id.String()
	return mergedResult{res: r, id: id}, true
}

// mergeRanked sorts merged results into the canonical global order and
// returns the results, truncated to k when k > 0.
func mergeRanked(ms []mergedResult, k int) []Result {
	slices.SortFunc(ms, func(a, b mergedResult) int {
		if c := exec.Compare(a.res.Score, b.res.Score, a.res.Level, b.res.Level); c != 0 {
			return c
		}
		return dewey.Compare(a.id, b.id)
	})
	if k > 0 && len(ms) > k {
		ms = ms[:k]
	}
	rs := make([]Result, len(ms))
	for i := range ms {
		rs[i] = ms[i].res
	}
	return rs
}

// composeErr picks the error the caller sees from the per-shard errors
// (each already classified by the shard's own epilogue): the first
// (lowest shard index) error that is not a cancellation — sibling-cancel
// turns one shard's failure into cancellations everywhere else — falling
// back to the first cancellation (all-cancelled means the caller's own
// context was cancelled).
func composeErr(errs []error) error {
	var first error
	for _, e := range errs {
		if e == nil {
			continue
		}
		if first == nil {
			first = e
		}
		if !errors.Is(e, ErrCancelled) {
			return e
		}
	}
	return first
}

// scatter runs fn(i, ctx, str) on every shard through the worker pool
// under a shared cancellable context, then composes the per-shard errors.
// fn must confine its writes to index-i slots.
//
// When the coordinator is traced, each shard runs under its own child
// trace (str) on the coordinator's clock: the wait for a worker-pool slot
// becomes the shard's admission stage span, the shard's engine emits its
// own stage spans into str, and an aborted shard notes its cancel cause.
// After the pool drains, the children are stitched into the coordinator
// trace as shard/<i> wrapper spans in shard-ID order — not completion
// order — so Export is deterministic for a given set of shard runs.
func (sh *Sharded) scatter(ctx context.Context, tr *obs.Trace, fn func(i int, ctx context.Context, str *obs.Trace) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	n := len(sh.shards)
	errs := make([]error, n)
	var kids []*obs.Trace
	if tr.Enabled() {
		kids = make([]*obs.Trace, n)
		for i := range kids {
			kids[i] = tr.NewChild()
		}
	}
	sh.metrics.Shard.FanOuts.Inc()
	sh.pool.EachTimed(n, func(i int, wait time.Duration) {
		var str *obs.Trace
		if kids != nil {
			str = kids[i]
			// The queue-slot wait ended just now, so the admission span
			// covers [now-wait, now] on the shared coordinator clock.
			end := str.Duration()
			start := end - wait
			if start < 0 {
				start = 0
			}
			str.Interval(obs.StageSpanName(obs.StageAdmission), start, end)
		}
		errs[i] = fn(i, sctx, str)
		if errs[i] != nil {
			str.Note("shard-abort: "+errs[i].Error(), 0, 0, 0)
			// Stop siblings: their partial work cannot complete the answer.
			cancel()
		}
	})
	for i, c := range kids {
		tr.AdoptChild(obs.ShardSpanName(i), c)
	}
	return composeErr(errs)
}

// composePartial folds the per-shard run metadata into the global one.
// The answer is partial only when a shard genuinely aborted mid-run
// (coordinator-cancelled shards are complete by the threshold argument
// above); the global unseen bound is then the max over the genuine
// partials' bounds and the cancelled shards' last emitted scores — every
// result any shard did not surface scores at or below it.
func composePartial(metas []exec.RunMeta, cancelled []bool, lastScore []float64, hasLast []bool) exec.RunMeta {
	var meta exec.RunMeta
	for i := range metas {
		if metas[i].Partial && !cancelled[i] {
			meta.Partial = true
		}
	}
	if !meta.Partial {
		return meta
	}
	bound := math.Inf(-1)
	for i := range metas {
		switch {
		case metas[i].Partial && !cancelled[i]:
			if metas[i].UnseenBound > bound {
				bound = metas[i].UnseenBound
			}
		case cancelled[i] && hasLast[i]:
			if lastScore[i] > bound {
				bound = lastScore[i]
			}
		}
	}
	meta.UnseenBound = bound
	return meta
}

// recertify recomputes each merged result's Exact flag against the
// global unseen bound when the composed answer is partial (per-shard
// flags certified only shard-local ranks).
func recertify(rs []Result, meta exec.RunMeta) {
	if !meta.Partial {
		return
	}
	for i := range rs {
		rs[i].Exact = rs[i].Score >= meta.UnseenBound
	}
}

// finish is the coordinator's query epilogue, mirroring Index.finishQuery:
// coordinator metrics, slow-query log, tail-sampled trace capture, and
// one flight-recorder record per scatter-gather query — carrying the
// merged-rank fingerprint (shard-count-invariant by construction) and
// the shard fan-out count. The per-shard resource profiles accumulate in
// each shard's own registry, so the coordinator record carries none.
func (sh *Sharded) finish(e obs.Engine, op, query string, k int, elapsed time.Duration, rs []Result, results int, meta exec.RunMeta, visible error, tr *obs.Trace, opt SearchOptions) {
	sh.metrics.RecordQuery(e, query, k, elapsed, results, visible, tr)
	bd := recordBreakdown(sh.metrics, e, elapsed, tr)
	if bd != nil && bd.Straggler >= 0 && len(sh.shards) > 1 {
		sh.metrics.Shard.Stragglers.Inc()
	}
	if visible == nil && meta.Partial {
		sh.metrics.Serving.PartialQueries.Add(1)
	}
	var traceID uint64
	if ts := sh.traces.Load(); ts != nil && tr != nil {
		if id := ts.Add(e, query, k, elapsed, results, visible, tr); id != 0 {
			traceID = id
			if em := sh.metrics.Engine(e); em != nil {
				em.Latency.SetExemplar(elapsed, int64(id))
			}
		}
	}
	r := sh.qlog.Load()
	if !r.Enabled() {
		return
	}
	out := outcomeClass(visible, visible)
	if visible == nil && meta.Partial {
		out = qlog.OutcomePartial
	}
	rec := qlog.Record{
		Op:         op,
		Keywords:   Keywords(query),
		Semantics:  semLabel(opt.Semantics),
		K:          k,
		Algo:       opt.Algorithm.String(),
		Engine:     e.String(),
		Outcome:    out,
		DurationNs: elapsed.Nanoseconds(),
		Results:    results,
		Shards:     len(sh.shards),
		TraceID:    traceID,
	}
	if visible == nil {
		rec.Fingerprint = resultsHash(rs).String()
	} else {
		rec.Err = visible.Error()
	}
	annotateStages(&rec, bd)
	r.Offer(rec)
}

// searchScatterObs is the sharded complete evaluation: batch scatter to
// every shard (each resolving its own engine, including per-shard
// cost-based planning for AlgoAuto), then a full merge.
func (sh *Sharded) searchScatterObs(ctx context.Context, query string, kws []string, opt SearchOptions, tr *obs.Trace) (rs []Result, meta exec.RunMeta, err error) {
	start := time.Now()
	sh.pinned.Add(1)
	eng := searchEngineSlot(opt.Algorithm)
	defer func() {
		sh.pinned.Add(-1)
		sh.finish(eng, "search", query, 0, time.Since(start), rs, len(rs), meta, err, tr, opt)
	}()
	defer guard(&err)
	if kws == nil {
		kws = Keywords(query)
	}
	if len(kws) == 0 {
		return nil, meta, ErrNoKeywords
	}
	sh.mu.RLock()
	offs, _ := sh.offsetsLocked()
	sh.mu.RUnlock()
	n := len(sh.shards)
	perShard := make([][]mergedResult, n)
	metas := make([]exec.RunMeta, n)
	err = sh.scatter(ctx, tr, func(i int, sctx context.Context, str *obs.Trace) error {
		srs, smeta, _, serr := sh.shards[i].searchObs(sctx, query, kws, opt, str)
		if serr != nil {
			return serr
		}
		metas[i] = smeta
		for _, r := range srs {
			if m, ok := remapResult(r, offs[i]); ok {
				perShard[i] = append(perShard[i], m)
			}
		}
		return nil
	})
	if err != nil {
		return nil, meta, err
	}
	msp := tr.Stage(obs.StageMerge)
	meta = composePartial(metas, make([]bool, n), nil, nil)
	var all []mergedResult
	for i := range perShard {
		all = append(all, perShard[i]...)
	}
	rs = mergeRanked(all, 0)
	tr.End(msp)
	ssp := tr.Stage(obs.StageSettle)
	recertify(rs, meta)
	tr.End(ssp)
	return rs, meta, nil
}

// topKScatterObs is the sharded top-K evaluation. The star-join
// algorithms (AlgoJoin's top-K mode, and TopKStream always) go through
// the streaming scatter with threshold exchange; every other algorithm —
// including AlgoAuto, which plans per shard against each shard's own
// statistics and generation-keyed plan cache — runs a batch scatter of
// per-shard top-(k+1) evaluations (the extra slot absorbs a shard root
// occupying a rank).
func (sh *Sharded) topKScatterObs(ctx context.Context, query string, kws []string, k int, opt SearchOptions, tr *obs.Trace) (rs []Result, meta exec.RunMeta, err error) {
	start := time.Now()
	sh.pinned.Add(1)
	eng := topKEngineSlot(opt.Algorithm)
	defer func() {
		sh.pinned.Add(-1)
		sh.finish(eng, "topk", query, k, time.Since(start), rs, len(rs), meta, err, tr, opt)
	}()
	defer guard(&err)
	if k <= 0 {
		return nil, meta, errPositiveK()
	}
	if kws == nil {
		kws = Keywords(query)
	}
	if len(kws) == 0 {
		return nil, meta, ErrNoKeywords
	}
	if opt.Algorithm == AlgoJoin {
		rs, meta, err = sh.streamGather(ctx, query, kws, k, opt, tr)
	} else {
		rs, meta, err = sh.batchGatherTopK(ctx, query, kws, k, opt, tr)
	}
	if err != nil {
		return nil, meta, err
	}
	ssp := tr.Stage(obs.StageSettle)
	recertify(rs, meta)
	tr.End(ssp)
	return rs, meta, nil
}

// batchGatherTopK scatters per-shard top-(k+1) evaluations and merges.
func (sh *Sharded) batchGatherTopK(ctx context.Context, query string, kws []string, k int, opt SearchOptions, tr *obs.Trace) ([]Result, exec.RunMeta, error) {
	sh.mu.RLock()
	offs, _ := sh.offsetsLocked()
	sh.mu.RUnlock()
	n := len(sh.shards)
	perShard := make([][]mergedResult, n)
	metas := make([]exec.RunMeta, n)
	err := sh.scatter(ctx, tr, func(i int, sctx context.Context, str *obs.Trace) error {
		srs, smeta, _, serr := sh.shards[i].topKObs(sctx, query, kws, k+1, opt, str)
		if serr != nil {
			return serr
		}
		metas[i] = smeta
		for _, r := range srs {
			if m, ok := remapResult(r, offs[i]); ok {
				perShard[i] = append(perShard[i], m)
			}
		}
		return nil
	})
	if err != nil {
		return nil, exec.RunMeta{}, err
	}
	msp := tr.Stage(obs.StageMerge)
	defer tr.End(msp)
	meta := composePartial(metas, make([]bool, n), nil, nil)
	var all []mergedResult
	for i := range perShard {
		all = append(all, perShard[i]...)
	}
	return mergeRanked(all, k), meta, nil
}

// streamGather is the threshold-exchange scatter: every shard streams
// its ranked results (top k+1, covering a root-occupied slot) into a
// shared top-K score heap; when a shard's just-emitted result scores
// strictly below the global K-th, the shard is cancelled — its later
// results score no higher, so at least k already-offered results beat
// them all and the merged top-K is unaffected.
func (sh *Sharded) streamGather(ctx context.Context, query string, kws []string, k int, opt SearchOptions, tr *obs.Trace) ([]Result, exec.RunMeta, error) {
	sh.mu.RLock()
	offs, _ := sh.offsetsLocked()
	sh.mu.RUnlock()
	n := len(sh.shards)
	perShard := make([][]mergedResult, n)
	metas := make([]exec.RunMeta, n)
	cancelled := make([]bool, n)
	lastScore := make([]float64, n)
	hasLast := make([]bool, n)
	thr := shard.NewThreshold(k)
	err := sh.scatter(ctx, tr, func(i int, sctx context.Context, str *obs.Trace) error {
		emit := func(r Result) bool {
			m, ok := remapResult(r, offs[i])
			if !ok {
				return true
			}
			perShard[i] = append(perShard[i], m)
			lastScore[i], hasLast[i] = r.Score, true
			thr.Offer(r.Score)
			if thr.Kth() > r.Score {
				cancelled[i] = true
				sh.metrics.Shard.EarlyCancels.Inc()
				// emit runs on the shard goroutine inside topKStreamObs,
				// so noting the cancel cause on str is single-goroutine.
				str.Note("early-cancel: threshold exchange", int64(i), 0, 0)
				return false
			}
			return true
		}
		_, smeta, serr := sh.shards[i].topKStreamObs(sctx, query, kws, k+1, opt, emit, str)
		if serr != nil {
			return serr
		}
		metas[i] = smeta
		return nil
	})
	if err != nil {
		return nil, exec.RunMeta{}, err
	}
	msp := tr.Stage(obs.StageMerge)
	defer tr.End(msp)
	meta := composePartial(metas, cancelled, lastScore, hasLast)
	var all []mergedResult
	for i := range perShard {
		all = append(all, perShard[i]...)
	}
	return mergeRanked(all, k), meta, nil
}

// topKStreamScatterObs is the sharded streaming top-K. A global rank
// order only exists after the gather, so the stream is buffered: the
// threshold-exchange scatter completes, then the merged results are
// delivered to fn in rank order (fn returning false stops delivery
// cleanly). Per-shard evaluation still streams — and is still cancelled
// early — inside the scatter.
func (sh *Sharded) topKStreamScatterObs(ctx context.Context, query string, kws []string, k int, opt SearchOptions, fn func(Result) bool, tr *obs.Trace) (delivered int, meta exec.RunMeta, err error) {
	start := time.Now()
	sh.pinned.Add(1)
	var deliveredRs []Result
	defer func() {
		sh.pinned.Add(-1)
		sh.finish(obs.EngineTopK, "topk_stream", query, k, time.Since(start), deliveredRs, delivered, meta, err, tr, opt)
	}()
	defer guard(&err)
	if k <= 0 {
		return 0, meta, errPositiveK()
	}
	if fn == nil {
		return 0, meta, errNilCallback()
	}
	if kws == nil {
		kws = Keywords(query)
	}
	if len(kws) == 0 {
		return 0, meta, ErrNoKeywords
	}
	rs, m, serr := sh.streamGather(ctx, query, kws, k, opt, tr)
	if serr != nil {
		return 0, meta, serr
	}
	meta = m
	ssp := tr.Stage(obs.StageSettle)
	recertify(rs, meta)
	tr.End(ssp)
	for _, r := range rs {
		if !fn(r) {
			break
		}
		delivered++
	}
	deliveredRs = rs[:delivered]
	return delivered, meta, nil
}

// --- public query surface (mirrors Index) ---

// Search evaluates the complete ranked result set across every shard.
func (sh *Sharded) Search(query string, opt SearchOptions) ([]Result, error) {
	return sh.SearchContext(context.Background(), query, opt)
}

// SearchContext is Search honoring a context.
func (sh *Sharded) SearchContext(ctx context.Context, query string, opt SearchOptions) ([]Result, error) {
	rs, _, err := sh.searchScatterObs(ctx, query, nil, opt, nil)
	return rs, err
}

// TopK returns the k globally best results in descending score order.
func (sh *Sharded) TopK(query string, k int, opt SearchOptions) ([]Result, error) {
	return sh.TopKContext(context.Background(), query, k, opt)
}

// TopKContext is TopK honoring a context.
func (sh *Sharded) TopKContext(ctx context.Context, query string, k int, opt SearchOptions) ([]Result, error) {
	rs, _, err := sh.topKScatterObs(ctx, query, nil, k, opt, nil)
	return rs, err
}

// TopKStream delivers the k globally best results to fn in rank order.
// Unlike Index.TopKStream, delivery begins only after the scatter-gather
// completes (a global rank needs every shard's answer); fn returning
// false stops delivery.
func (sh *Sharded) TopKStream(query string, k int, opt SearchOptions, fn func(Result) bool) error {
	return sh.TopKStreamContext(context.Background(), query, k, opt, fn)
}

// TopKStreamContext is TopKStream honoring a context.
func (sh *Sharded) TopKStreamContext(ctx context.Context, query string, k int, opt SearchOptions, fn func(Result) bool) error {
	_, _, err := sh.topKStreamScatterObs(ctx, query, nil, k, opt, fn, nil)
	return err
}

// newTrace builds a coordinator trace honoring the installed trace
// store's span cap, mirroring Index.newTrace.
func (sh *Sharded) newTrace() *obs.Trace {
	tr := obs.NewTrace()
	if n := sh.traces.Load().MaxSpans(); n > 0 {
		tr.SetMaxSpans(n)
	}
	return tr
}

// SearchTraced is SearchContext with a coordinator-level trace attached.
func (sh *Sharded) SearchTraced(ctx context.Context, query string, opt SearchOptions) ([]Result, *QueryStats, error) {
	tr := sh.newTrace()
	sp := tr.Start("search/" + spanName(opt.Algorithm, false) + "/sharded")
	rs, meta, err := sh.searchScatterObs(ctx, query, nil, opt, tr)
	tr.End(sp)
	return rs, newQueryStats(query, searchEngineSlot(opt.Algorithm), 0, len(rs), meta, tr), err
}

// TopKTraced is TopKContext with a coordinator-level trace attached.
func (sh *Sharded) TopKTraced(ctx context.Context, query string, k int, opt SearchOptions) ([]Result, *QueryStats, error) {
	tr := sh.newTrace()
	sp := tr.Start("topk/" + spanName(opt.Algorithm, true) + "/sharded")
	rs, meta, err := sh.topKScatterObs(ctx, query, nil, k, opt, tr)
	tr.End(sp)
	return rs, newQueryStats(query, topKEngineSlot(opt.Algorithm), k, len(rs), meta, tr), err
}

// TopKStreamTraced is TopKStreamContext with a coordinator-level trace.
func (sh *Sharded) TopKStreamTraced(ctx context.Context, query string, k int, opt SearchOptions, fn func(Result) bool) (*QueryStats, error) {
	tr := sh.newTrace()
	sp := tr.Start("topk-stream/" + obs.EngineTopK.String() + "/sharded")
	delivered, meta, err := sh.topKStreamScatterObs(ctx, query, nil, k, opt, fn, tr)
	tr.End(sp)
	return newQueryStats(query, obs.EngineTopK, k, delivered, meta, tr), err
}

// ShardedQuery is a validated, pre-tokenized query bound to a sharded
// index — the sharded counterpart of PreparedQuery.
type ShardedQuery struct {
	sh       *Sharded
	query    string
	keywords []string
	opt      SearchOptions
}

// Prepare tokenizes and validates the query under the given options,
// with the same contract as Index.Prepare.
func (sh *Sharded) Prepare(query string, opt SearchOptions) (*ShardedQuery, error) {
	keywords := Keywords(query)
	if len(keywords) == 0 {
		return nil, ErrNoKeywords
	}
	if opt.Algorithm != AlgoAuto && !engines.HasAlgo(int(opt.Algorithm)) {
		return nil, fmt.Errorf("xmlsearch: unknown algorithm %v", opt.Algorithm)
	}
	return &ShardedQuery{sh: sh, query: query, keywords: keywords, opt: opt}, nil
}

// Query returns the original query text.
func (sq *ShardedQuery) Query() string { return sq.query }

// Keywords returns the resolved keywords (shared slice; do not mutate).
func (sq *ShardedQuery) Keywords() []string { return sq.keywords }

// Search evaluates the complete ranked result set.
func (sq *ShardedQuery) Search(ctx context.Context) ([]Result, error) {
	rs, _, err := sq.sh.searchScatterObs(ctx, sq.query, sq.keywords, sq.opt, nil)
	return rs, err
}

// TopK returns the k globally best results.
func (sq *ShardedQuery) TopK(ctx context.Context, k int) ([]Result, error) {
	rs, _, err := sq.sh.topKScatterObs(ctx, sq.query, sq.keywords, k, sq.opt, nil)
	return rs, err
}

// TopKStream delivers the merged top-K to fn in rank order.
func (sq *ShardedQuery) TopKStream(ctx context.Context, k int, fn func(Result) bool) error {
	_, _, err := sq.sh.topKStreamScatterObs(ctx, sq.query, sq.keywords, k, sq.opt, fn, nil)
	return err
}

// Plan returns a representative query plan: shard 0's (each shard plans
// independently against its own statistics at execution time, so a
// sharded query has no single global plan).
func (sh *Sharded) Plan(query string, k int, opt SearchOptions) (*QueryPlan, error) {
	return sh.shards[0].Plan(query, k, opt)
}

// errPositiveK and errNilCallback share the facade's exact error text.
func errPositiveK() error   { return fmt.Errorf("xmlsearch: k must be positive") }
func errNilCallback() error { return fmt.Errorf("xmlsearch: nil callback") }
