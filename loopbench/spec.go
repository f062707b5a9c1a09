package main

import (
	"time"

	"slurmsight/internal/sacct"
	"slurmsight/internal/sched/tournament"
)

// The names below are the benchmark's public vocabulary: BENCHMARK.json
// repeats them (a test keeps the two in step) and every later
// performance claim on this repository is stated in them.

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median the metric may worsen by
}

// endToEnd is what the acceptance driver gates: set-up time and the two
// memory costs, none of which depends on the host's mood. fail_frac is
// not in the list because a gated metric may never read 0: it is the
// result line's failed/attempted pair.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.10},
	{"alloc_mb_per_op", "MB", "lower", 0.03},
	{"live_heap_mb", "MB", "lower", 0.05},
}

// loopTimings are the four times a user of the loops waits for or pays.
// Every run measures and prints them and the self-check compares them,
// but they are diagnostics: on the reference sandbox bit-identical work
// spreads 7–17 % between runs in a noisy hour, a longer loop does not
// help, and ISSUE 14 demotes a metric that cannot hold 10 % rather than
// widen its bound (README, "Why the loop timings are not gated"). Bound
// is the 10 % the issue gave them; the self-check marks what exceeds it.
// A traced run reports them to the driver as loadgen.<name>.
var loopTimings = []metricDef{
	{"cold_s", "s", "lower", 0.10},
	{"op_p50_ms", "ms", "lower", 0.10},
	{"work_per_s", "1/s", "higher", 0.10},
	{"cpu_ms_per_op", "ms", "lower", 0.10},
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"batch-flow", "the understanding loop, one schedflow run per op: sacct obtain, slurm parse, curate, analyze, plot and dataflow do the work; serve and sched do none"},
	{"serve-read", "queryd read path, 2 closed-loop clients on a warm store: serve cache/HTTP and sacct windowed scans dominate; half the keys are hot, a third miss and evict"},
	{"serve-live", "writes beside reads, 1 tailer: each cycle appends 200 rows then needs a fresh figure, so append, Finalize, generation bump and the O(store) re-collect dominate"},
	{"sched-evolve", "the evolving loop, one LLM evolve round per op: the scheduler simulator is nearly all of it and the data plane idles; the contrast for every data-plane change"},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.Name
	}
	return out
}

// sizes fixes the work of a run. The full table is calibrated once for
// the 2-core reference sandbox (README, "Calibration") and never scaled
// at run time, so two commits always do identical work. It is sized by
// the acceptance driver's cap — 92 runs inside 57 minutes — for an hour
// in which the sandbox runs a third slower than at its best: loops of
// 15–17 s on a quiet host, 17–23 s in such an hour. The smoke table is
// the same shape small enough for go test.
type sizes struct {
	// flow6m: Frontier profile at a reduced rate.
	flowStart, flowEnd time.Time
	flowJobsPerDay     float64
	flowUsers          int

	// contended3d: default Frontier profile, a saturated machine.
	contendedStart      time.Time
	contendedDays       int
	contendedJobsPerDay float64 // 0 keeps the profile's rate

	coldReps int // fresh Store+Server first-figure repetitions (serve-*)

	batchOps      int // schedflow runs
	readRequests  int // serve-read requests, split over readClients
	readClients   int
	liveCycles    int // serve-live append→figure→3 queries cycles
	liveBatchRows int
	evolveOps     int // chained single-round evolutions

	// layer-probe sample counts (traced run)
	probeHits, probeMisses, probeCycles, probeLLMCalls int
}

// flowMonths lists flow6m's month shards, which are also the workflow's
// periods.
func (sz *sizes) flowMonths() []sacct.Month {
	var out []sacct.Month
	for m := sacct.MonthOf(sz.flowStart); m.Start().Before(sz.flowEnd); m = m.Next() {
		out = append(out, m)
	}
	return out
}

// thirdMonth is the month the late appends land in and the
// single-period probes read (the last month, when the trace is shorter).
func (sz *sizes) thirdMonth() sacct.Month {
	months := sz.flowMonths()
	return months[min(2, len(months)-1)]
}

func date(y int, m time.Month, d int) time.Time { return time.Date(y, m, d, 0, 0, 0, 0, time.UTC) }

var fullSizes = sizes{
	flowStart: date(2024, 1, 1), flowEnd: date(2024, 7, 1),
	flowJobsPerDay: 30, flowUsers: 120,
	contendedStart: date(2024, 3, 1), contendedDays: 3,
	coldReps:     5,
	batchOps:     6,
	readRequests: 180000, readClients: 2,
	liveCycles: 232, liveBatchRows: 200,
	evolveOps: 3,
	probeHits: 2000, probeMisses: 200, probeCycles: 16, probeLLMCalls: 10,
}

var smokeSizes = sizes{
	flowStart: date(2024, 1, 1), flowEnd: date(2024, 3, 1),
	flowJobsPerDay: 2, flowUsers: 12,
	contendedStart: date(2024, 3, 1), contendedDays: 2, contendedJobsPerDay: 60,
	coldReps:     1,
	batchOps:     2,
	readRequests: 400, readClients: 2,
	liveCycles: 10, liveBatchRows: 20,
	evolveOps: 2,
	probeHits: 20, probeMisses: 8, probeCycles: 9, probeLLMCalls: 2,
}

// perLayer lists the traced run's metrics. They have no bound: they say
// where an end-to-end move came from (README, interaction table).
func perLayer() []metricDef {
	lower := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	higher := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	out := []metricDef{
		lower("tracegen.generate_ms", "ms"),
		higher("tracegen.requests", "count"),
	}
	for _, sp := range tournament.DefaultSpecs() {
		p := "sched." + sp.Name + "."
		out = append(out,
			lower(p+"run_ms", "ms"),
			lower(p+"ns_per_event", "ns"),
			lower(p+"passes", "count"),
			lower(p+"events", "count"),
			higher(p+"backfill_start_frac", "ratio"),
		)
	}
	out = append(out,
		lower("tournament.run_ms", "ms"),
		higher("tournament.overlap_frac", "ratio"),
		lower("llm.evolve_call_ms", "ms"),
		lower("colstore.dump_ns_per_row", "ns"),
		lower("colstore.bytes_per_row", "B"),
		lower("colstore.open_ms", "ms"),
		lower("colstore.warm_ns_per_row", "ns"),
		lower("colstore.warm_allocs_per_row", "count"),
		lower("colstore.projected_ns_per_row", "ns"),
		lower("colstore.columns_read", "count"),
		lower("colstore.bytes_read", "B"),
		lower("sacct.write_ns_per_row", "ns"),
		lower("sacct.scan_ns_per_row", "ns"),
		lower("sacct.add_ns_per_row", "ns"),
		lower("sacct.add_late_ns_per_row", "ns"),
		lower("sacct.finalize_ms", "ms"),
		lower("slurm.parse_ns_per_row", "ns"),
		lower("slurm.parse_allocs_per_row", "count"),
		lower("slurm.encode_ns_per_row", "ns"),
		lower("curate.stream_ns_per_row", "ns"),
		lower("curate.parallel_ns_per_row", "ns"),
		higher("curate.kept_frac", "ratio"),
		lower("analyze.observe_ns_per_row", "ns"),
		lower("analyze.merge_ms", "ms"),
		lower("core.chart_ms", "ms"),
		lower("plot.html_ms", "ms"),
		lower("raster.png_ms", "ms"),
		lower("dataflow.overhead_ms", "ms"),
		lower("serve.hit_us", "us"),
		lower("serve.miss_query_ms", "ms"),
		lower("serve.figure_collect_ms", "ms"),
		lower("serve.figure_render_ms", "ms"),
		lower("serve.ingest_batch_ms", "ms"),
		lower("serve.http_overhead_us", "us"),
		higher("serve.cache_hit_frac", "ratio"),
		lower("serve.cache_evictions", "count"),
		lower("serve.generations_per_batch", "ratio"),
		lower("obs.trace_overhead_frac", "ratio"),
		lower("host.peak_rss_mb", "MB"),
		higher("host.nproc", "count"),
		lower("loadgen.op_p99_ms", "ms"),
	)
	for _, d := range loopTimings {
		out = append(out, metricDef{Name: "loadgen." + d.Name, Unit: d.Unit, Better: d.Better})
	}
	return out
}
