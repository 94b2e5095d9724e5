// Command perfbench is the repository's benchmark. One run sets up one
// named workload several times, drives closed-loop load on it for a fixed
// time, checks every output after the timed window, and prints each metric
// as "name value unit n=<samples>" followed by one JSON result line.
//
// Workloads:
//
//	solve  library path: a fixed list of repro.Run calls on one goroutine
//	serve  single-node server, two tenants streaming 16-cell batches
//	fleet  three workers behind a cluster coordinator, 64-cell sweeps
//
// With -trace 1 the run measures a second, traced window after the
// untraced one: spans around every call the benchmark makes into a layer,
// a CPU profile attributed to layers by package, and the per-layer counts
// the program returns. The JSON line then carries the per-layer metrics.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench -workload solve|serve|fleet [-seed n] [-seconds s] [-trace 0|1]
//	          [-spec BENCHMARK.json] [-counts perfbench/counts.json] [-out dir]
//	          [-write-counts]
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	opt := options{scale: fullScale}
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "workload to run: solve, serve or fleet")
	flag.Uint64Var(&opt.seed, "seed", defaultSeed, "workload seed; every input is generated from it")
	flag.Float64Var(&opt.seconds, "seconds", 20, "length of the timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 adds a traced window and reports per-layer metrics")
	flag.StringVar(&opt.spec, "spec", "BENCHMARK.json", "benchmark declaration naming the metrics to report")
	flag.StringVar(&opt.counts, "counts", "perfbench/counts.json", "exact counts recorded for the default seed")
	flag.StringVar(&opt.outDir, "out", ".bench_build/perfbench", "directory for traces, profiles and scratch files")
	flag.BoolVar(&opt.writeCounts, "write-counts", false, "record this run's exact counts for the default seed instead of checking them")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	opt.trace = trace == 1
	if opt.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		os.Exit(2)
	}
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	os.Exit(run(opt, os.Stdout))
}
