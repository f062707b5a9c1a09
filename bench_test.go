// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablations of the design choices DESIGN.md calls out.
// Each figure benchmark measures the analysis + rendering pipeline over a
// shared simulated trace and, on its first run, prints the rows/series the
// paper reports so the shape can be compared directly (absolute numbers
// come from the simulator, not OLCF's testbed; see EXPERIMENTS.md).
package slurmsight_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"slurmsight/internal/analyze"
	"slurmsight/internal/cluster"
	"slurmsight/internal/core"
	"slurmsight/internal/curate"
	"slurmsight/internal/dataflow"
	"slurmsight/internal/llm"
	"slurmsight/internal/obs"
	"slurmsight/internal/plot"
	"slurmsight/internal/sacct"
	"slurmsight/internal/sched"
	"slurmsight/internal/slurm"
	"slurmsight/internal/tracegen"
)

// --- shared fixtures, built once ---

type fixture struct {
	store  *sacct.Store
	bundle *analyze.Bundle // every figure's aggregation, collected once from store
}

var (
	frontierOnce sync.Once
	frontierFix  *fixture
	andesOnce    sync.Once
	andesFix     *fixture
	fullOnce     sync.Once
	fullVols     []analyze.VolumeByYear
	spreadOnce   sync.Once
	spreadFix    *fixture
)

// spread is a six-month, low-rate Frontier store whose records are spread
// evenly across monthly shards — the right shape for measuring sharded
// retrieval and workflow-stage concurrency.
func spread(b *testing.B) *fixture {
	b.Helper()
	spreadOnce.Do(func() {
		p := tracegen.FrontierProfile()
		p.JobsPerDay, p.Users = 40, 80
		start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
		spreadFix = simulateFixture(p, cluster.Frontier(), start, start.AddDate(0, 6, 0), 8, true)
	})
	return spreadFix
}

func simulateFixture(profile tracegen.Profile, sys *cluster.System,
	start, end time.Time, seed int64, steps bool) *fixture {
	reqs, err := tracegen.Generate([]tracegen.Phase{{Profile: profile, Start: start, End: end}}, seed)
	if err != nil {
		panic(err)
	}
	sim, err := sched.New(sched.DefaultConfig(sys))
	if err != nil {
		panic(err)
	}
	res, err := sim.Run(reqs, sched.Options{EmitSteps: steps})
	if err != nil {
		panic(err)
	}
	st := sacct.NewStore()
	if err := st.Ingest(res); err != nil {
		panic(err)
	}
	st.Finalize()
	bundle, err := analyze.Collect(st.Scan(sacct.Query{IncludeSteps: true}), core.TimelineBucket)
	if err != nil {
		panic(err)
	}
	return &fixture{store: st, bundle: bundle}
}

// nthJob returns a copy of the store's n-th job row in scan order.
func nthJob(b *testing.B, st *sacct.Store, n int64) slurm.Record {
	b.Helper()
	for r, err := range st.Scan(sacct.Query{}) {
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			return r.Clone()
		}
		n--
	}
	b.Fatal("store holds too few jobs")
	return slurm.Record{}
}

// figure builds one figure from a collected bundle.
func figure(b *testing.B, key, system string, bundle *analyze.Bundle) *plot.Chart {
	b.Helper()
	c, err := core.ChartFromBundle(key, system, bundle, 50, 0)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func frontier(b *testing.B) *fixture {
	b.Helper()
	frontierOnce.Do(func() {
		p := tracegen.FrontierProfile()
		p.JobsPerDay, p.Users = 250, 160
		start := time.Date(2024, 2, 1, 0, 0, 0, 0, time.UTC)
		frontierFix = simulateFixture(p, cluster.Frontier(), start, start.AddDate(0, 0, 30), 5, true)
	})
	return frontierFix
}

func andes(b *testing.B) *fixture {
	b.Helper()
	andesOnce.Do(func() {
		p := tracegen.AndesProfile()
		p.JobsPerDay, p.Users = 250, 160
		start := time.Date(2024, 2, 1, 0, 0, 0, 0, time.UTC)
		andesFix = simulateFixture(p, cluster.Andes(), start, start.AddDate(0, 0, 30), 6, true)
	})
	return andesFix
}

// fullScenario covers both Frontier eras for the Figure 1 year series;
// its job and step rows stream into a volume collector and are never
// held.
func fullScenario(b *testing.B) []analyze.VolumeByYear {
	b.Helper()
	fullOnce.Do(func() {
		start := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
		end := time.Date(2024, 12, 31, 0, 0, 0, 0, time.UTC)
		phases := tracegen.FrontierScenario(start, end)
		for i := range phases {
			phases[i].Profile.JobsPerDay = 25
			phases[i].Profile.Users = 120
		}
		reqs, err := tracegen.Generate(phases, 9)
		if err != nil {
			panic(err)
		}
		sim, err := sched.New(sched.DefaultConfig(cluster.Frontier()))
		if err != nil {
			panic(err)
		}
		res, err := sim.Run(reqs, sched.Options{EmitSteps: true})
		if err != nil {
			panic(err)
		}
		vc := analyze.NewVolumeCollector()
		for r := range res.Records {
			vc.Observe(r)
		}
		fullVols = vc.Result()
	})
	return fullVols
}

var reportOnce sync.Map

// report prints a figure's headline rows exactly once per bench run.
func report(name, text string) {
	if _, loaded := reportOnce.LoadOrStore(name, true); !loaded {
		fmt.Fprintf(os.Stderr, "\n[%s]\n%s\n", name, text)
	}
}

// --- Table 1: curated field selection ---

func BenchmarkTable1FieldSelection(b *testing.B) {
	f := frontier(b)
	fields := slurm.SelectedNames()
	report("table1", fmt.Sprintf("selected %d of %d accounting fields across %d categories",
		len(fields), len(slurm.AllFieldNames()), len(slurm.Categories())))
	rec := nthJob(b, f.store, 0)
	header := slurm.Header(fields) + "\n"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line, err := slurm.EncodeRecord(&rec, fields)
		if err != nil {
			b.Fatal(err)
		}
		br, err := slurm.NewByteRecordReader(strings.NewReader(header + line))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := br.Next(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 2: LLM offering survey ---

func BenchmarkTable2LLMSelection(b *testing.B) {
	reg := llm.Registry()
	chosen, err := llm.Choose(reg, llm.PaperCriteria())
	if err != nil {
		b.Fatal(err)
	}
	report("table2", fmt.Sprintf("%d providers surveyed → selected %s %s (free API, image input, no usage cap)",
		len(reg), chosen.Vendor, chosen.Model))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := llm.Choose(reg, llm.PaperCriteria()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 1: job and step volume per year ---

func BenchmarkFigure1JobStepVolume(b *testing.B) {
	vols := fullScenario(b)
	text := ""
	for _, v := range vols {
		text += fmt.Sprintf("  %d: %d jobs, %d steps\n", v.Year, v.Jobs, v.Steps)
	}
	text += fmt.Sprintf("  steps/jobs ratio: %.1f (paper: ~14x)", analyze.StepJobRatio(vols))
	report("figure1", text)
	f := frontier(b)
	b.ResetTimer()
	renderFigure(b, core.FigVolume, "frontier", f.bundle)
}

// --- Figure 2: inferred dataflow graph ---

func BenchmarkFigure2DataflowGraph(b *testing.B) {
	build := func() *dataflow.Graph {
		g := dataflow.NewGraph()
		noop := func(context.Context) error { return nil }
		must := func(err error) {
			if err != nil {
				b.Fatal(err)
			}
		}
		must(g.Add(dataflow.Task{Name: "obtain-data", Writes: []string{"raw"}, Run: noop}))
		must(g.Add(dataflow.Task{Name: "curate", Reads: []string{"raw"}, Writes: []string{"csv"}, Run: noop}))
		for _, fig := range core.FigureKeys() {
			must(g.Add(dataflow.Task{Name: "plot-" + fig, Reads: []string{"csv"},
				Writes: []string{fig + ".html"}, Run: noop}))
			must(g.Add(dataflow.Task{Name: "html2png-" + fig, Reads: []string{fig + ".html"},
				Writes: []string{fig + ".png"}, Run: noop}))
			must(g.Add(dataflow.Task{Name: "llm-insight-" + fig, Reads: []string{fig + ".png"},
				Writes: []string{fig + ".md"}, Run: noop}))
		}
		var dash []string
		for _, fig := range core.FigureKeys() {
			dash = append(dash, fig+".html")
		}
		must(g.Add(dataflow.Task{Name: "dashboard", Reads: dash, Writes: []string{"dash"}, Run: noop}))
		return g
	}
	g := build()
	rows, err := g.Rows()
	if err != nil {
		b.Fatal(err)
	}
	text := fmt.Sprintf("  %d tasks in %d concurrency rows; widest row %d tasks\n  DOT export: %d bytes",
		g.Len(), len(rows), widest(rows), len(g.DOT()))
	report("figure2", text)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := build()
		if _, err := g.Rows(); err != nil {
			b.Fatal(err)
		}
		_ = g.DOT()
	}
}

func widest(rows [][]string) int {
	w := 0
	for _, r := range rows {
		if len(r) > w {
			w = len(r)
		}
	}
	return w
}

// renderFigure measures the per-figure path from a collected bundle:
// chart → SVG.
func renderFigure(b *testing.B, key, system string, bundle *analyze.Bundle) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := plot.SVG(figure(b, key, system, bundle), 960, 540); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 3: nodes vs elapsed (Frontier) ---

func BenchmarkFigure3NodesVsElapsed(b *testing.B) {
	f := frontier(b)
	s := analyze.SummarizeScale(f.bundle.Scale.Result())
	report("figure3", fmt.Sprintf(
		"  frontier: median %.0f nodes / %.0f min elapsed; small-short %.0f%%, large-long %.2f%%",
		s.MedianNodes, s.MedianElapsedSec/60, 100*s.SmallShortShare, 100*s.LargeLongShare))
	b.ResetTimer()
	renderFigure(b, core.FigNodesElapsed, "frontier", f.bundle)
}

// --- Figure 4: wait times by final state (Frontier) ---

func BenchmarkFigure4WaitTimes(b *testing.B) {
	f := frontier(b)
	s := analyze.SummarizeWaits(f.bundle.Waits.Result())
	report("figure4", fmt.Sprintf(
		"  frontier: p50 %.0fs, p90 %.0fs, p99 %.0fs; long-tail(>100ks) %.2f%%; states stratified: %d",
		s.P50, s.P90, s.P99, 100*s.LongWaits, len(s.PerState)))
	b.ResetTimer()
	renderFigure(b, core.FigWaitTimes, "frontier", f.bundle)
}

// --- Figure 5: end states per user (Frontier) ---

func BenchmarkFigure5StatesPerUser(b *testing.B) {
	f := frontier(b)
	s := analyze.SummarizeUsers(f.bundle.Users.Result(0))
	report("figure5", fmt.Sprintf(
		"  frontier: %d users; mean failed share %.1f%% (std %.2f); top decile owns %.0f%% of failures",
		s.Users, 100*s.MeanFailedShare, s.StdFailedShare, 100*s.TopDecileFailures))
	b.ResetTimer()
	renderFigure(b, core.FigStates, "frontier", f.bundle)
}

// --- Figure 6: requested vs actual walltime + backfill (Frontier) ---

func BenchmarkFigure6Backfill(b *testing.B) {
	f := frontier(b)
	s := analyze.SummarizeBackfill(f.bundle.Backfill.Result())
	report("figure6", fmt.Sprintf(
		"  frontier: %.0f%% of jobs use <75%% of request; median use %.0f%%; %.0f%% backfilled;\n"+
			"  backfilled median %.0fs vs regular %.0fs; reclaimable %.0f node-hours",
		100*s.OverestimateShare, 100*s.MedianUseRatio, 100*s.BackfilledShare,
		s.MedianActualBackfilled, s.MedianActualRegular,
		f.bundle.Reclaim.Result()))
	b.ResetTimer()
	renderFigure(b, core.FigBackfill, "frontier", f.bundle)
}

// --- Figures 7–9: the Andes portability panel ---

func BenchmarkFigure7AndesNodesVsElapsed(b *testing.B) {
	a, f := andes(b), frontier(b)
	sa := analyze.SummarizeScale(a.bundle.Scale.Result())
	sf := analyze.SummarizeScale(f.bundle.Scale.Result())
	report("figure7", fmt.Sprintf(
		"  andes: median %.0f nodes, small-short %.0f%% (frontier: %.0f nodes, %.0f%%) — denser small/short work",
		sa.MedianNodes, 100*sa.SmallShortShare, sf.MedianNodes, 100*sf.SmallShortShare))
	b.ResetTimer()
	renderFigure(b, core.FigNodesElapsed, "andes", a.bundle)
}

func BenchmarkFigure8AndesStatesPerUser(b *testing.B) {
	a, f := andes(b), frontier(b)
	sa := analyze.SummarizeUsers(a.bundle.Users.Result(0))
	sf := analyze.SummarizeUsers(f.bundle.Users.Result(0))
	report("figure8", fmt.Sprintf(
		"  andes: mean failed share %.1f%% std %.2f (frontier: %.1f%% std %.2f) — lower, more uniform",
		100*sa.MeanFailedShare, sa.StdFailedShare, 100*sf.MeanFailedShare, sf.StdFailedShare))
	b.ResetTimer()
	renderFigure(b, core.FigStates, "andes", a.bundle)
}

func BenchmarkFigure9AndesBackfill(b *testing.B) {
	a, f := andes(b), frontier(b)
	sa := analyze.SummarizeBackfill(a.bundle.Backfill.Result())
	sf := analyze.SummarizeBackfill(f.bundle.Backfill.Result())
	report("figure9", fmt.Sprintf(
		"  andes: median use ratio %.0f%% (frontier %.0f%%) — over-estimation persists, tighter on Andes",
		100*sa.MedianUseRatio, 100*sf.MedianUseRatio))
	b.ResetTimer()
	renderFigure(b, core.FigBackfill, "andes", a.bundle)
}

// --- §4.2: LLM insight and comparison stages ---

func BenchmarkLLMInsight(b *testing.B) {
	f := frontier(b)
	chart := figure(b, core.FigBackfill, "frontier", f.bundle)
	png, err := plot.PNG(chart, 960, 540)
	if err != nil {
		b.Fatal(err)
	}
	server := httptest.NewServer(func() *llm.Server {
		s := llm.NewServer("sk-bench")
		s.RatePerSec = 0 // benches hammer the endpoint
		return s
	}().Handler())
	defer server.Close()
	client := llm.NewClient(server.URL, "sk-bench")
	img, err := llm.EncodeImage("fig6", png, chart)
	if err != nil {
		b.Fatal(err)
	}
	resp, err := client.Analyze(context.Background(), llm.InsightPrompt, img)
	if err != nil {
		b.Fatal(err)
	}
	report("llm-insight", "  "+truncate(resp.Text, 220))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Analyze(context.Background(), llm.InsightPrompt, img); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLLMCompare(b *testing.B) {
	f := frontier(b)
	// Split the window at its median job's submission: two store windows.
	mid := nthJob(b, f.store, f.bundle.Jobs/2).Submit
	half := func(label string, q sacct.Query) *plot.Chart {
		hb, err := analyze.Collect(f.store.Scan(q), core.TimelineBucket)
		if err != nil {
			b.Fatal(err)
		}
		return figure(b, core.FigWaitTimes, label, hb)
	}
	ca := half("first half", sacct.Query{End: mid})
	cb := half("second half", sacct.Query{Start: mid})
	a, err := llm.CompareCharts(ca, cb)
	if err != nil {
		b.Fatal(err)
	}
	report("llm-compare", "  "+truncate(a.Text, 220))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := llm.CompareCharts(ca, cb); err != nil {
			b.Fatal(err)
		}
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}

// --- §3.3: workflow concurrency scaling ---

func BenchmarkWorkflowConcurrency(b *testing.B) {
	f := spread(b)
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("n=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dir := b.TempDir()
				art, err := core.Run(context.Background(), core.Config{
					SystemName:  "frontier",
					Store:       f.store,
					OutputDir:   filepath.Join(dir, "out"),
					Granularity: sacct.Monthly,
					Start:       start,
					End:         start.AddDate(0, 6, 0),
					Workers:     workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				if workers > 1 && art.Trace.MaxConcurrency < 2 {
					b.Fatal("no concurrency observed")
				}
			}
		})
	}
}

// --- Scheduler core scaling ---

// BenchmarkSchedulerScaling sweeps trace sizes on the Frontier profile and
// measures the simulator core alone (no steps, no store): the number that
// bounds every figure and ablation above. Tracked in BENCH_*.json; the
// hot-path optimisations in internal/sched are accepted against this
// benchmark (see EXPERIMENTS.md "Scheduler hot path").
func BenchmarkSchedulerScaling(b *testing.B) {
	start := time.Date(2024, 2, 1, 0, 0, 0, 0, time.UTC)
	for _, n := range []int{10_000, 50_000, 200_000} {
		b.Run(fmt.Sprintf("reqs=%d", n), func(b *testing.B) {
			// Constant submission pressure (~93% utilization, multi-hour
			// queues on Frontier) with the window scaled to the trace size:
			// larger traces mean proportionally longer replays over a
			// standing queue, the regime where per-event cost matters.
			// The profile expands chains/arrays to ~2.7 requests per
			// nominal job, hence the 1600/day divisor.
			p := tracegen.FrontierProfile()
			p.JobsPerDay = 600
			p.Users = 400
			days := n / 1600
			reqs, err := tracegen.Generate([]tracegen.Phase{{
				Profile: p, Start: start, End: start.AddDate(0, 0, days),
			}}, 11)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(reqs)), "requests")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim, err := sched.New(sched.DefaultConfig(cluster.Frontier()))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sim.Run(reqs, sched.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Observability overhead ---

// BenchmarkObsOverhead quantifies the cost of the obs layer in its two
// states. The "off" variants run with no registry/tracer — the nil-no-op
// path every instrumented call site takes by default, which must stay
// within noise of the uninstrumented PR 3 numbers. The "on" variants
// attach a live registry (and, for analyze, bundle instrumentation) to
// measure what a metered production run pays. Tracked in EXPERIMENTS.md
// "Observability overhead".
func BenchmarkObsOverhead(b *testing.B) {
	// Scheduler core: per-event counter increments dominate the delta.
	start := time.Date(2024, 2, 1, 0, 0, 0, 0, time.UTC)
	p := tracegen.FrontierProfile()
	p.JobsPerDay = 600
	p.Users = 400
	reqs, err := tracegen.Generate([]tracegen.Phase{{
		Profile: p, Start: start, End: start.AddDate(0, 0, 31),
	}}, 11)
	if err != nil {
		b.Fatal(err)
	}
	schedRun := func(b *testing.B, reg *obs.Registry) {
		b.ReportMetric(float64(len(reqs)), "requests")
		for i := 0; i < b.N; i++ {
			cfg := sched.DefaultConfig(cluster.Frontier())
			cfg.Metrics = reg
			sim, err := sched.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sim.Run(reqs, sched.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("sched-metrics-off", func(b *testing.B) { schedRun(b, nil) })
	b.Run("sched-metrics-on", func(b *testing.B) { schedRun(b, obs.NewRegistry()) })

	// Curate+analyze stream: per-row counter increments.
	f := spread(b)
	spec := sacct.FetchSpec{
		Granularity: sacct.Monthly,
		Start:       start.AddDate(0, -1, 0),
		End:         start.AddDate(0, 5, 0),
	}
	fetcher := &sacct.Fetcher{Store: f.store, CacheDir: b.TempDir(), Workers: 4}
	files, err := fetcher.Fetch(context.Background(), spec)
	if err != nil {
		b.Fatal(err)
	}
	const bucket = 6 * time.Hour
	analyzeRun := func(b *testing.B, reg *obs.Registry) {
		for i := 0; i < b.N; i++ {
			merged := analyze.NewBundle(bucket)
			merged.Instrument(reg)
			for _, fl := range files {
				part := analyze.NewBundle(bucket)
				part.Instrument(reg)
				var rep curate.Report
				opts := curate.DefaultOptions()
				opts.Metrics = reg
				if _, err := curate.StreamFileParallel(fl.Path, "", opts, &rep,
					func(int) func(*slurm.Record) bool {
						return func(rec *slurm.Record) bool { part.Observe(rec); return true }
					}); err != nil {
					b.Fatal(err)
				}
				merged.Merge(part)
			}
			if merged.Records == 0 {
				b.Fatal("empty analysis")
			}
		}
	}
	b.Run("analyze-metrics-off", func(b *testing.B) { analyzeRun(b, nil) })
	b.Run("analyze-metrics-on", func(b *testing.B) { analyzeRun(b, obs.NewRegistry()) })
}

// --- Ablations ---

// BenchmarkAblationBackfillPolicy contrasts EASY backfill against a pure
// priority-order FIFO on the same workload: who wins on wait time, and by
// how much — the scheduler-level grounding for the paper's backfill
// analysis.
func BenchmarkAblationBackfillPolicy(b *testing.B) {
	p := tracegen.FrontierProfile()
	p.JobsPerDay, p.Users = 220, 100
	start := time.Date(2024, 2, 1, 0, 0, 0, 0, time.UTC)
	reqs, err := tracegen.Generate([]tracegen.Phase{{Profile: p, Start: start, End: start.AddDate(0, 0, 10)}}, 3)
	if err != nil {
		b.Fatal(err)
	}
	run := func(backfill string) sched.RunStats {
		cfg := sched.DefaultConfig(cluster.Frontier())
		cfg.Backfill = backfill
		sim, err := sched.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run(reqs, sched.Options{})
		if err != nil {
			b.Fatal(err)
		}
		return res.Stats
	}
	on, off := run("easy"), run("none")
	report("ablation-backfill", fmt.Sprintf(
		"  EASY backfill: mean wait %s, util %.1f%%, %d backfilled\n"+
			"  FIFO only:     mean wait %s, util %.1f%% — backfill wins by %.1fx on wait",
		on.MeanWait().Round(time.Second), 100*on.Utilization(), on.Backfilled,
		off.MeanWait().Round(time.Second), 100*off.Utilization(),
		float64(off.MeanWait())/float64(on.MeanWait()+1)))
	for _, mode := range []struct {
		name     string
		backfill string
	}{{"easy-backfill", "easy"}, {"fifo-only", "none"}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = run(mode.backfill)
			}
		})
	}
}

// BenchmarkAblationWalltimeAccuracy sweeps the user over-estimation factor
// and measures scheduler outcomes — the quantitative case for the paper's
// "reclaim unused time" recommendation.
func BenchmarkAblationWalltimeAccuracy(b *testing.B) {
	start := time.Date(2024, 2, 1, 0, 0, 0, 0, time.UTC)
	run := func(over float64) sched.RunStats {
		p := tracegen.FrontierProfile()
		p.JobsPerDay, p.Users = 220, 100
		for i := range p.Classes {
			p.Classes[i].Overestimate = tracegen.Const(over)
		}
		reqs, err := tracegen.Generate([]tracegen.Phase{{Profile: p, Start: start, End: start.AddDate(0, 0, 10)}}, 3)
		if err != nil {
			b.Fatal(err)
		}
		sim, err := sched.New(sched.DefaultConfig(cluster.Frontier()))
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run(reqs, sched.Options{})
		if err != nil {
			b.Fatal(err)
		}
		return res.Stats
	}
	text := ""
	for _, over := range []float64{1.0, 2.0, 4.0} {
		s := run(over)
		text += fmt.Sprintf("  overestimate %.0fx: mean wait %s, %d backfilled\n",
			over, s.MeanWait().Round(time.Second), s.Backfilled)
	}
	report("ablation-walltime", text+"  tighter estimates → shorter queues: the time-reclamation case")
	for _, over := range []float64{1.0, 2.0, 4.0} {
		over := over
		b.Run(fmt.Sprintf("over=%.0fx", over), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = run(over)
			}
		})
	}
}

// BenchmarkAblationShardedFetch contrasts the concurrent month-sharded
// Obtain-data stage against a sequential one — the GNU Parallel claim.
func BenchmarkAblationShardedFetch(b *testing.B) {
	f := spread(b)
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	spec := sacct.FetchSpec{
		Granularity: sacct.Monthly,
		Start:       start,
		End:         start.AddDate(0, 6, 0),
	}
	for _, workers := range []int{1, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fetcher := &sacct.Fetcher{Store: f.store, CacheDir: b.TempDir(), Workers: workers}
				if _, err := fetcher.Fetch(context.Background(), spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPreemption contrasts urgent-job latency with and
// without an evictable preemptible pool — the NERSC-realtime/TACC-flex
// pattern the paper cites as the policy response to near-real-time work.
func BenchmarkAblationPreemption(b *testing.B) {
	start := time.Date(2024, 2, 1, 0, 0, 0, 0, time.UTC)
	day := func(h float64) float64 { return h * 3600 }
	run := func(preemptibleQOS string) (urgentWait time.Duration, preemptions int) {
		// A soak pool large enough to saturate the machine, plus a thin
		// stream of small urgent steering jobs.
		p := tracegen.Profile{
			Name: "preemption-ablation", System: cluster.Frontier(),
			Users: 40, UserSkew: 0.8, FailSpread: 1.2, JobsPerDay: 120,
			Classes: []tracegen.Class{
				{
					Name: "soak", Weight: 0.9, QOS: preemptibleQOS,
					Nodes:        tracegen.Clamped{D: tracegen.LogNormalMedian(1500, 1.6), Lo: 512, Hi: 5000},
					Runtime:      tracegen.Clamped{D: tracegen.LogNormalMedian(day(10), 1.5), Lo: day(2), Hi: day(24)},
					Overestimate: tracegen.Clamped{D: tracegen.Const(1.2), Lo: 1, Hi: 2},
					Steps:        tracegen.Const(2),
				},
				{
					Name: "steering", Weight: 0.1, QOS: "urgent",
					Nodes:        tracegen.Clamped{D: tracegen.LogNormalMedian(16, 1.6), Lo: 1, Hi: 64},
					Runtime:      tracegen.Clamped{D: tracegen.LogNormalMedian(day(0.2), 1.5), Lo: 60, Hi: day(1)},
					Overestimate: tracegen.Clamped{D: tracegen.Const(1.5), Lo: 1, Hi: 3},
					Steps:        tracegen.Const(2),
				},
			},
		}
		reqs, err := tracegen.Generate([]tracegen.Phase{{
			Profile: p, Start: start, End: start.AddDate(0, 0, 7),
		}}, 3)
		if err != nil {
			b.Fatal(err)
		}
		sim, err := sched.New(sched.DefaultConfig(cluster.Frontier()))
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run(reqs, sched.Options{})
		if err != nil {
			b.Fatal(err)
		}
		var total time.Duration
		n := 0
		for o := range res.Outcomes {
			if o.Req.QOS == "urgent" && o.Started {
				total += o.Start.Sub(o.Req.Submit)
				n++
			}
		}
		if n == 0 {
			return 0, res.Stats.Preemptions
		}
		return total / time.Duration(n), res.Stats.Preemptions
	}
	withPool, evictions := run("preemptible")
	withoutPool, _ := run("normal")
	report("ablation-preemption", fmt.Sprintf(
		"  urgent mean wait with evictable pool: %s (%d evictions)\n"+
			"  urgent mean wait without:             %s — preemption protects near-real-time latency",
		withPool.Round(time.Second), evictions, withoutPool.Round(time.Second)))
	for _, mode := range []struct {
		name string
		qos  string
	}{{"evictable-pool", "preemptible"}, {"no-preemption", "normal"}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _ = run(mode.qos)
			}
		})
	}
}

// BenchmarkAblationNodeSharing contrasts small-job turnaround with and
// without node sharing — the Andes-style lever for high-turnover,
// sub-node interactive work.
func BenchmarkAblationNodeSharing(b *testing.B) {
	start := time.Date(2024, 2, 1, 0, 0, 0, 0, time.UTC)
	day := func(h float64) float64 { return h * 3600 }
	// A small analysis cluster flooded with quarter-node jobs: exclusive
	// placement needs ~110% of the machine, shared placement ~25%.
	sys := &cluster.System{
		Name: "analysis", Nodes: 64, CoresPerNode: 32, MemPerNode: 256 << 30,
		Partitions: []cluster.Partition{
			{Name: "batch", Nodes: 64, MaxWall: 24 * time.Hour, Default: true},
		},
		QOSLevels: []cluster.QOS{{Name: "normal"}},
	}
	if err := sys.Validate(); err != nil {
		b.Fatal(err)
	}
	run := func(sharing bool) sched.RunStats {
		p := tracegen.Profile{
			Name: "sharing-ablation", System: sys,
			Users: 60, UserSkew: 0.8, FailSpread: 1.2, JobsPerDay: 430,
			Classes: []tracegen.Class{{
				Name: "interactive", Weight: 1, QOS: "normal",
				Nodes:        tracegen.Const(1),
				SubNodeCores: tracegen.Clamped{D: tracegen.LogNormalMedian(7, 1.5), Lo: 1, Hi: 16},
				Runtime:      tracegen.Clamped{D: tracegen.LogNormalMedian(day(4), 1.5), Lo: 1800, Hi: day(12)},
				Overestimate: tracegen.Clamped{D: tracegen.Const(1.5), Lo: 1, Hi: 3},
				Steps:        tracegen.Const(2),
			}},
		}
		reqs, err := tracegen.Generate([]tracegen.Phase{{
			Profile: p, Start: start, End: start.AddDate(0, 0, 5),
		}}, 3)
		if err != nil {
			b.Fatal(err)
		}
		cfg := sched.DefaultConfig(sys)
		cfg.EnableNodeSharing = sharing
		sim, err := sched.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run(reqs, sched.Options{})
		if err != nil {
			b.Fatal(err)
		}
		return res.Stats
	}
	on, off := run(true), run(false)
	report("ablation-node-sharing", fmt.Sprintf(
		"  shared nodes:    mean wait %s, util %.1f%%\n"+
			"  exclusive nodes: mean wait %s, util %.1f%% — sharing absorbs the sub-node flood",
		on.MeanWait().Round(time.Second), 100*on.Utilization(),
		off.MeanWait().Round(time.Second), 100*off.Utilization()))
	for _, mode := range []struct {
		name    string
		sharing bool
	}{{"shared", true}, {"exclusive", false}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = run(mode.sharing)
			}
		})
	}
}

// BenchmarkAblationDataflowVsSerial measures the engine's concurrency win
// on a plot-stage-shaped graph of equal-cost tasks.
func BenchmarkAblationDataflowVsSerial(b *testing.B) {
	work := func(ctx context.Context) error {
		time.Sleep(2 * time.Millisecond)
		return nil
	}
	build := func() *dataflow.Graph {
		g := dataflow.NewGraph()
		g.Add(dataflow.Task{Name: "curate", Writes: []string{"csv"}, Run: work})
		for i := 0; i < 6; i++ {
			g.Add(dataflow.Task{Name: fmt.Sprintf("plot-%d", i), Reads: []string{"csv"},
				Writes: []string{fmt.Sprintf("p%d", i)}, Run: work})
		}
		return g
	}
	for _, workers := range []int{1, 6} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := (&dataflow.Executor{Workers: workers}).Run(context.Background(), build()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
