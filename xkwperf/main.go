// Command xkwperf is the repository's end-to-end benchmark. One run
// generates a seeded corpus, builds or loads the index the way the
// daemon does, serves it through obshttp on a loopback listener, replays
// a seeded request sequence against it, checks every answer against an
// oracle, and prints every metric by name and unit, ending with one JSON
// line:
//
//	go run . -workload topk -seed 1 -seconds 20 -trace 0
//
// Workloads are topk, complete-sharded and ingest (see workloads.go for
// why each exists); -workload all runs the three in turn in one process,
// each ending with its own JSON line. With -trace 1 the run instead times the calls into
// each layer from outside (layers.go), writes the spans to a file, and
// reports the per-layer metrics. The process exits non-zero when any
// answer differs from the oracle or any acknowledged write is lost.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/gen"
)

// endToEnd and perLayer are the metrics the JSON line carries with
// -trace 0 and -trace 1; BENCHMARK.json lists the same names
// (TestBenchmarkJSONMatches). Every end-to-end metric is defined, and
// never 0, on every workload. The write-path figures only the ingest
// workload has (append_*, rewrite_p50_ms, recovery_s) and the failure
// ratios (0 on correct code) are printed in the report but gated through
// "failed"/"correct" and the per-layer map instead.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"query_qps", "1/s"},
	{"heap_mb", "MB"},
	{"index_bytes_per_xml_byte", "ratio"},
}

var perLayer = []metricDef{
	{"colstore.open_cold_us_p50", "us"},
	{"colstore.open_warm_us_p50", "us"},
	{"colstore.decoded_bytes_per_query", "bytes"},
	{"colstore.cache_hit_ratio", "ratio"},
	{"colstore.allocs_per_open", "count"},
	{"core.join_us_p50", "us"},
	{"core.join_us_p99", "us"},
	{"core.results_per_query", "count"},
	{"core.allocs_per_query", "count"},
	{"core.bytes_per_query", "bytes"},
	{"topk.eval_us_p50", "us"},
	{"topk.eval_us_p99", "us"},
	{"topk.candidates_per_query", "count"},
	{"topk.useful_ratio", "ratio"},
	{"topk.allocs_per_query", "count"},
	{"topk.bytes_per_query", "bytes"},
	{"hybrid.eval_us_p50", "us"},
	{"stack.eval_us_p50", "us"},
	{"ixlookup.eval_us_p50", "us"},
	{"rdil.eval_us_p50", "us"},
	{"exec.plan_us_p50", "us"},
	{"exec.plan_cache_hit_ratio", "ratio"},
	{"exec.auto_regret", "ratio"},
	{"xmlsearch.self_us_p50", "us"},
	{"xmlsearch.allocs_per_query", "count"},
	{"xmlsearch.bytes_per_query", "bytes"},
	{"shard.overhead_us_p50", "us"},
	{"shard.overhead_ratio", "ratio"},
	{"obshttp.self_us_p50", "us"},
	{"obshttp.resp_bytes_per_query", "bytes"},
	{"obshttp.shed_total", "count"},
	{"wal.fsyncs_per_mutation", "count"},
	{"wal.bytes_per_user_byte", "ratio"},
	{"delta.compactions", "count"},
	{"delta.compaction_ms_mean", "ms"},
	{"delta.compaction_busy_share", "ratio"},
	{"delta.max_ops", "count"},
	{"ingest.generator_lag_ms", "ms"},
	{"ingest.append_p50_ms", "ms"},
	{"ingest.append_p90_ms", "ms"},
	{"ingest.rewrite_p50_ms", "ms"},
	{"ingest.recovery_s", "s"},
	{"trace.untraced_p50_ms", "ms"},
	{"trace.overhead_ms", "ms"},
	{"trace.reconcile_error", "ratio"},
}

type metricDef struct{ name, unit string }

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	outDir   string
}

// setupReps is how many times set-up is repeated per run; setup_s is
// their median, so one slow disk sync or noisy second does not move it.
const setupReps = 5

// runCtx carries one run's inputs and collects its report.
type runCtx struct {
	cfg      config
	ds       *gen.Dataset
	xmlBytes int64
	heapBase float64 // live heap MB just before set-up, subtracted from heap_mb
	dir      string  // temporary directory for index files, removed at exit

	attempted, failed int
	problems          []string
	rows              []row // the end-to-end report, all metrics
	layer             map[string]float64
	notes             []string
}

// row is one end-to-end report line; na explains a metric that does not
// apply to the workload.
type row struct {
	name, unit string
	value      float64
	note, na   string
}

func (r *runCtx) e2e(name, unit string, v float64, note string) {
	r.rows = append(r.rows, row{name: name, unit: unit, value: v, note: note})
}

func (r *runCtx) na(name, unit, why string) {
	r.rows = append(r.rows, row{name: name, unit: unit, na: why})
}

func (r *runCtx) problem(format string, a ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
}

func (r *runCtx) note(format string, a ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, a...))
}

var workloads = map[string]func(*runCtx) error{
	"topk":             runTopK,
	"complete-sharded": runCompleteSharded,
	"ingest":           runIngest,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xkwperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "topk", "workload: topk, complete-sharded, ingest, or all three in turn")
	seed := fs.Int64("seed", 1, "seed for the request sequence and the writes")
	seconds := fs.Float64("seconds", 20, "minimum measured time per run")
	trace := fs.Int("trace", 0, "1 = traced per-layer run instead of the end-to-end run")
	outDir := fs.String("out", ".bench_build/xkwperf", "directory for temporary index files and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = []string{"topk", "complete-sharded", "ingest"}
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "xkwperf: bad arguments (seconds %v, trace %d)\n", *seconds, *trace)
		return 2
	}
	code := 0
	for _, name := range names {
		if workloads[name] == nil {
			fmt.Fprintf(stderr, "xkwperf: unknown workload %q\n", name)
			return 2
		}
		cfg := config{workload: name, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, outDir: *outDir}
		if c := runOne(cfg, stdout, stderr); c > code {
			code = c
		}
	}
	return code
}

// runOne runs one workload and prints its report; it returns the exit code.
func runOne(cfg config, stdout, stderr io.Writer) int {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "xkwperf:", err)
		return 1
	}
	dir, err := os.MkdirTemp(cfg.outDir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "xkwperf:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	// A layer the workload does not exercise reads 0.
	r := &runCtx{cfg: cfg, dir: dir, layer: map[string]float64{}}
	for _, d := range perLayer {
		r.layer[d.name] = 0
	}
	r.ds = gen.DBLP(corpusScale, corpusSeed)
	cw := &countWriter{}
	if err := r.ds.Doc.WriteXML(cw); err != nil {
		fmt.Fprintln(stderr, "xkwperf: serialize corpus:", err)
		return 1
	}
	r.xmlBytes = cw.n
	if err := workloads[cfg.workload](r); err != nil {
		fmt.Fprintf(stderr, "xkwperf: %s: %v\n", cfg.workload, err)
		return 1
	}
	return r.print(stdout, stderr)
}

// print writes the human-readable report and the final JSON line, and
// returns the exit code.
func (r *runCtx) print(stdout, stderr io.Writer) int {
	fmt.Fprintf(stdout, "workload %s seed %d (corpus %d nodes, %d XML bytes)\n", r.cfg.workload, r.cfg.seed, r.ds.Doc.Len(), r.xmlBytes)
	for _, x := range r.rows {
		if x.na != "" {
			fmt.Fprintf(stdout, "  %-28s %14s %-5s  %s\n", x.name, "n/a", x.unit, x.na)
			continue
		}
		fmt.Fprintf(stdout, "  %-28s %14.4f %-5s  %s\n", x.name, x.value, x.unit, x.note)
	}
	for _, n := range r.notes {
		fmt.Fprintln(stdout, "  note:", n)
	}
	for _, p := range r.problems {
		fmt.Fprintln(stderr, "xkwperf: FAIL:", p)
	}

	defs, values := endToEnd, map[string]float64{}
	for _, x := range r.rows {
		if x.na == "" {
			values[x.name] = x.value
		}
	}
	if r.cfg.trace {
		defs, values = perLayer, r.layer
		for _, d := range perLayer {
			fmt.Fprintf(stdout, "  %-34s %16.4f %s\n", d.name, values[d.name], d.unit)
		}
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: len(r.problems) == 0 && r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]map[string]any{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "xkwperf: metric %s was not measured\n", d.name)
			return 1
		}
		out.Metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	if out.Attempted < 1 {
		fmt.Fprintln(stderr, "xkwperf: nothing was attempted")
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "xkwperf:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
