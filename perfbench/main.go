// Command perfbench is the repository's served-system benchmark. It starts
// the real front end (server.New over a dsu.Registry) on an in-process
// loopback listener, drives one seeded workload through the public
// server.Client APIs, checks every answer against internal/seqdsu, and
// prints the workload's metrics by name and unit.
//
//	sh perfbench/run.sh --workload pipe-ingest --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run is untraced and reports the end-to-end metrics.
// With --trace 1 it runs the workload twice, untraced and then recording
// spans from the benchmark's own files, replays the traced window's
// batches through each layer from outside (wire codecs, an identically
// built in-process tenant, a fresh write-ahead log), and reports the
// per-layer metrics plus the tracing overhead.
//
// Everything above the last line of standard output is a human-readable
// report (host banner, provenance, tables with sample counts). The last
// line is one JSON object with the keys correct, attempted, failed and
// metrics. An oracle mismatch prints correct=false and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	commit   string
	dir      string // scratch root: logs, crash images and span dumps
	shape    shape

	// corrupt, set only by the self-test, damages one answer ("answer")
	// or one served label ("label") before the oracle sees it, to prove
	// the oracle rejects it.
	corrupt string
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(*config, *tracer) (*run, error){
	"pipe-ingest":    runPipe,
	"durable-stream": runStream,
	"rpc-mixed":      runRPC,
}

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: pipe-ingest, durable-stream or rpc-mixed")
		seed    = fs.Uint64("seed", 1, "input seed")
		seconds = fs.Float64("seconds", 20, "measured window per run, in seconds")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		commit  = fs.String("commit", "none", "commit of the measured sources (provenance only)")
		dir     = fs.String("dir", ".bench_build", "scratch directory for logs and spans")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*name]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q (want pipe-ingest, durable-stream or rpc-mixed)\n", *name)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: --seconds must be positive, got %v\n", *seconds)
		return 2
	}
	cfg := &config{
		workload: *name,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		commit:   *commit,
		dir:      *dir,
		shape:    shapes(false)[*name],
	}
	res, err := execute(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		if res == nil {
			return 1
		}
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", jerr)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs the configured workload and assembles the result. A nil
// result with an error means the benchmark itself could not run (nothing
// to report); a result with Correct=false means the oracle rejected the
// served system's answers.
func execute(cfg *config) (*result, error) {
	runDir, err := os.MkdirTemp(cfg.dir, "run-"+cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	cfg.dir = runDir

	drive := workloads[cfg.workload]
	out := os.Stdout
	printBanner(out, cfg)

	plain, err := drive(cfg, nil)
	if err != nil {
		return checkFailure(plain, err)
	}
	printRun(out, cfg, "untraced", plain)
	res := &result{Correct: true, Attempted: plain.attempted, Failed: plain.failed}
	if !cfg.trace {
		var samples map[string]int
		res.Metrics, samples = endToEnd(plain)
		printMetrics(out, "End-to-end metrics ("+cfg.workload+", tracing off)", res.Metrics, samples)
		return res, nil
	}

	tr := &tracer{}
	traced, err := drive(cfg, tr)
	if err != nil {
		return checkFailure(traced, err)
	}
	printRun(out, cfg, "traced", traced)
	layers, samples, err := perLayer(cfg, traced, tr)
	if err != nil {
		return nil, err
	}
	layers["trace.untraced_ops_per_s"] = metric{plain.opsPerSec(), "ops/s"}
	layers["trace.traced_ops_per_s"] = metric{traced.opsPerSec(), "ops/s"}
	layers["trace.overhead_frac"] = metric{1 - traced.opsPerSec()/plain.opsPerSec(), "ratio"}
	spanFile := filepath.Join(filepath.Dir(runDir), "spans-"+cfg.workload+".jsonl")
	if err := tr.writeFile(spanFile); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "spans: %d written to %s\n\n", tr.len(), spanFile)
	printMetrics(out, "Per-layer metrics ("+cfg.workload+", traced run; medians over the stated samples)", layers, samples)
	res.Attempted += traced.attempted
	res.Failed += traced.failed
	res.Metrics = layers
	return res, nil
}

// checkFailure turns a workload error into the final result: oracle
// mismatches become correct=false, anything else aborts the run.
func checkFailure(r *run, err error) (*result, error) {
	var mm *mismatchError
	if !asMismatch(err, &mm) || r == nil {
		return nil, err
	}
	fmt.Fprintf(os.Stdout, "ORACLE MISMATCH: %v\n", mm)
	return &result{Correct: false, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}, err
}

// endToEnd is the --trace 0 metric set, which every workload reports in
// full, with the sample count behind each. Throughput and latency are
// medians over the window's slices (durable-stream: its rounds); query
// latency on the ingest workloads comes from the read probe's slices,
// and max_rss_mb is the median of the slices' peak resident sets.
func endToEnd(r *run) (map[string]metric, map[string]int) {
	qsl := r.slices
	if r.probeSlices != nil {
		qsl = r.probeSlices
	}
	all := append(append([]sample{}, r.unite...), r.query...)
	if r.probeSlices != nil {
		all = r.unite
	}
	return map[string]metric{
			"ops_per_s":    {sliceRate(r.slices, all), "ops/s"},
			"unite_p50_ms": {sliceQuantile(r.slices, r.unite, 0.50), "ms"},
			"unite_p90_ms": {sliceQuantile(r.slices, r.unite, 0.90), "ms"},
			"query_p50_ms": {sliceQuantile(qsl, r.query, 0.50), "ms"},
			"query_p90_ms": {sliceQuantile(qsl, r.query, 0.90), "ms"},
			"setup_s":      {quantile(r.setups, 0.50).Seconds(), "s"},
			"max_rss_mb":   {slicePeakMB(r.slices, r.rss), "MB"},
		}, map[string]int{
			"ops_per_s":    len(r.slices),
			"unite_p50_ms": len(r.unite),
			"unite_p90_ms": len(r.unite),
			"query_p50_ms": len(r.query),
			"query_p90_ms": len(r.query),
			"setup_s":      len(r.setups),
			"max_rss_mb":   len(r.rss),
		}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
