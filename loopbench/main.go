// Command loopbench is the repository's benchmark: one repeatable
// measurement of the loops a user of this system waits on — trace →
// curated store → figures (batch-flow), the live query service
// (serve-read, serve-live), and scorecard → LLM delta → re-simulate
// (sched-evolve) — with a second, traced invocation that times the
// calls into each layer from outside.
//
//	go run ./loopbench -workload batch-flow -seed 1            # end-to-end metrics
//	go run ./loopbench -workload batch-flow -seed 1 -trace 1   # per-layer metrics + Chrome trace
//	go run ./loopbench -selfcheck                              # two interleaved sets; is the benchmark steady?
//
// Run it from the repository root. The last line of stdout is one JSON
// object {correct, attempted, failed, metrics}; the readable report and
// provenance go to stderr and loopbench/out/. README.md in this
// directory defines every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	var (
		workload  = flag.String("workload", "", "one of batch-flow, serve-read, serve-live, sched-evolve")
		seed      = flag.Int64("seed", 1, "seed every generated input derives from")
		trace     = flag.Int("trace", 0, "1 repeats the loop with harness spans and reports the per-layer metrics")
		smoke     = flag.Bool("smoke", false, "tiny fixtures and two ops per workload: checks the harness, measures nothing")
		selfcheck = flag.Bool("selfcheck", false, "run two interleaved sets of this build over distinct seeds and compare them against the bounds")
		out       = flag.String("out", filepath.Join("loopbench", "out"), "directory for fixtures, traces and result files")
	)
	// The work per run is fixed, calibrated to BENCHMARK.json's
	// run_seconds on the reference host (README, "Calibration"), so two
	// commits do identical work; the driver's -seconds changes nothing.
	flag.Int("seconds", 16, "accepted and ignored: the work per run is fixed")
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	if *selfcheck {
		ok, err := selfCheck(os.Stdout, *out, *smoke)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	sz := &fullSizes
	if *smoke {
		sz = &smokeSizes
	}
	res, err := run(runConfig{workload: *workload, seed: *seed, traced: *trace != 0, outDir: *out}, sz)
	if err != nil {
		fatal(err)
	}
	res.report(os.Stderr)
	if err := res.save(*out); err != nil {
		fatal(err)
	}
	b, err := json.Marshal(res.contractLine())
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loopbench:", err)
	os.Exit(2)
}
