// Command perfbench is the repository's end-to-end benchmark. One run
// drives one seeded workload through the program's public surface and
// prints, as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (BENCHMARK.json's
// end_to_end list); with -trace 1 the run is split into an untraced and a
// traced pass and the metrics are the per-layer ones derived from spans
// recorded at the wrapped interfaces, plus a CPU-profile ledger and the
// tracing overhead. Any correctness-oracle mismatch prints the result with
// "correct": false and exits 1.
//
// Build and run it through run.sh, which keeps every build artefact in
// the checkout:
//
//	bash perfbench/run.sh --workload bulk-noop --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to figures.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	// out is the directory for traces, profiles and the journal's
	// scratch directory.
	out string
}

// outcome is what a workload reports back to main.
type outcome struct {
	// attempted and failed count families (bulk) or jobs (serve-mixed).
	attempted, failed int64
	// mismatches counts correctness-oracle failures; first describes one.
	mismatches int64
	first      string
	metrics    metrics
}

var workloads = map[string]func(config) (*outcome, error){
	"bulk-noop":   runBulkNoop,
	"bulk-mdf":    runBulkMDF,
	"serve-mixed": runServeMixed,
}

func main() {
	var cfg config
	var seconds int
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "bulk-noop | bulk-mdf | serve-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed generates the same corpus and arrivals")
	flag.IntVar(&seconds, "seconds", 20, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 runs an untraced and a traced pass and reports per-layer metrics")
	flag.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for traces and scratch files")
	flag.Parse()
	cfg.window = time.Duration(seconds) * time.Second
	cfg.trace = trace != 0
	run, ok := workloads[cfg.workload]
	if !ok || seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad -seconds (want bulk-noop, bulk-mdf or serve-mixed)\n", cfg.workload)
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	oc, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res := result{
		Correct:   oc.mismatches == 0,
		Attempted: oc.attempted,
		Failed:    oc.failed,
		Metrics:   oc.metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if oc.mismatches > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d oracle mismatches, first: %s\n", oc.mismatches, oc.first)
		os.Exit(1)
	}
}
