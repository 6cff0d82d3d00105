package main

import (
	"math/rand"
	"strings"

	"repro/internal/bench"
	"repro/internal/gen"
)

// The three workloads, and why each exists. All run over the synthetic
// DBLP corpus at scale 1.0 (≈102k element nodes), with K = 10, a checked
// warm-up pass, and then a fixed request sequence, drawn from the run
// seed, replayed in whole passes. The corpus itself is fixed (generator
// seed corpusSeed): the run seed picks the queries and the writes, so runs
// with different seeds measure the same data and index.
//
//   - topk: the product path. An unsharded index saved and reloaded with
//     Load (as `xkwserve -index` does), queried by 2 closed-loop clients
//     with /search?k=10 and the planner's default engine (auto). The mix
//     follows the paper's Fig. 10: 2–3 keyword queries of one frequency-
//     band term plus high-frequency terms, one request in five a
//     correlated query. It isolates the top-K pull/threshold loop
//     (internal/topk), the planner's engine choice (internal/exec) and the
//     decode-cache lookup (internal/colstore); responses are small.
//   - complete-sharded: complete answers (/search?k=0) from a 4-shard index
//     reloaded with LoadSharded, by 2 closed-loop clients; mostly ELCA,
//     one request in four SLCA. The mix follows Fig. 9: one band term plus
//     1–4 high-frequency terms. It isolates the per-level joins
//     (internal/core), materializing thousands of results, the shard merge
//     (internal/shard) and JSON encoding (internal/obshttp); internal/topk
//     does no work here, so comparing it with topk separates join work from
//     top-K work.
//   - ingest: an unsharded FromDocument index with EnableWAL, under an
//     open-loop writer (a batch of tail appends on a fixed period — the
//     delta fast path — plus an interior insert or removal on a slower
//     period — the materialize slow path) while one closed-loop client
//     reads the topk mix. Only here do the WAL, delta and compaction
//     layers work; reads under writes expose the overlay cost and
//     compaction interference. The run ends with Close and a timed Load
//     (recovery: base generation plus WAL replay).
//
// No workload exceeds the decoded-list cache: at scale 1.0 the whole
// vocabulary decodes to ≈27 MB, below colstore.DefaultCacheBytes (64 MB),
// so a larger-than-cache workload would need scale ≥ 4 (≈9 s of set-up
// per run) or a cache-size knob the program does not have. Cold decoding
// is measured per layer instead (colstore.open_cold_* in the traced run).

const (
	corpusSeed  = 1
	corpusScale = 1.0
	topK        = 10
	shardCount  = 4
)

// bandMix returns, for every frequency band, every band term and every
// keyword count in kws, `per` queries: the band term plus kw-1
// high-frequency terms drawn by internal/bench's Fig. 9 generator, with a
// fresh draw each time. Every band term appears equally often, so the seed
// changes which high-frequency partners a query gets, not how the mix is
// spread over bands; drawing several partner sets per term keeps the mix's
// cost from hanging on a few draws.
func bandMix(ds *gen.Dataset, seed int64, kws []int, per int) [][]string {
	env := &bench.Env{DS: ds}
	var out [][]string
	for bi, band := range ds.BandValues {
		for _, kw := range kws {
			for d := 0; d < per; d++ {
				out = append(out, env.BandQueries(seed+int64(1000*bi+100*d+kw), kw, band, len(ds.Bands[band]))...)
			}
		}
	}
	return out
}

// topkMix is the topk (and ingest reader) workload: the distinct queries
// and one pass of the request sequence, in which one request in five is a
// correlated query (Fig. 10(b)/(c)) and the rest are band queries, every
// band term with four partner draws of each keyword count.
func topkMix(ds *gen.Dataset, seed int64) (distinct, pass []request) {
	for _, q := range bandMix(ds, seed, []int{2, 3}, 4) {
		distinct = append(distinct, request{id: len(distinct), query: strings.Join(q, " "), k: topK, engine: "auto"})
	}
	nBand := len(distinct)
	for _, q := range (&bench.Env{DS: ds}).CorrelatedQueries() {
		distinct = append(distinct, request{id: len(distinct), query: strings.Join(q, " "), k: topK, engine: "auto"})
	}
	pass = append(pass, distinct[:nBand]...)
	corr := distinct[nBand:]
	for i := 0; i < nBand/4; i++ {
		pass = append(pass, corr[i%len(corr)])
	}
	shuffle(pass, seed)
	return distinct, pass
}

// completeMix is the complete-sharded workload: Fig. 9 band queries of
// 2–5 keywords, every band term with two partner draws of each keyword
// count, every fourth query under SLCA semantics, each sent once per pass.
func completeMix(ds *gen.Dataset, seed int64) (distinct, pass []request) {
	for i, q := range bandMix(ds, seed, []int{2, 3, 4, 5}, 2) {
		r := request{id: i, query: strings.Join(q, " "), k: 0}
		if i%4 == 3 {
			r.sem = "slca"
		}
		distinct = append(distinct, r)
	}
	pass = append([]request(nil), distinct...)
	shuffle(pass, seed)
	return distinct, pass
}

func shuffle(rs []request, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
}
