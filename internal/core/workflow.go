package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"html"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"slurmsight/internal/analyze"
	"slurmsight/internal/curate"
	"slurmsight/internal/dataflow"
	"slurmsight/internal/llm"
	"slurmsight/internal/obs"
	"slurmsight/internal/plot"
	"slurmsight/internal/sacct"
	"slurmsight/internal/slurm"
)

// Config parameterizes one workflow run, mirroring the paper's
// invocation: date_spec and dates select the query, cache and data name
// the filesystem locations, and Workers is the swift-t -n N physical
// concurrency.
type Config struct {
	SystemName string
	Store      *sacct.Store

	OutputDir string // permanent artifact location (the "data" argument)
	CacheDir  string // fast scratch for fetched text (the "cache" argument)

	Granularity sacct.Granularity
	Start, End  time.Time
	UseCache    bool

	Workers int // dataflow concurrency (default 4)

	// IngestWorkers sets how many chunks each period file is split into
	// and decoded concurrently during the curate stage. 0 (the default)
	// resolves to runtime.GOMAXPROCS(0); 1 decodes each file as one
	// chunk. Sidecars and figure data are byte-identical at every
	// worker count. Each curate task runs one decoder per chunk, so
	// Workers periods in flight run up to Workers × IngestWorkers
	// CPU-bound goroutines, which the Go scheduler shares among the
	// processors.
	IngestWorkers int

	TopUsers int // users shown in the states figure (default 50)

	// AI subworkflow (the orange stages). When EnableAI is set, LLM must
	// point at an analyze endpoint.
	EnableAI bool
	LLM      *llm.Client

	// CorruptionRate optionally injects malformed rows at the obtain
	// stage to exercise curation (see sacct.FetchSpec).
	CorruptionRate float64
	CorruptionSeed int64

	// Robustness knobs for the dataflow run. TaskAttempts is the total
	// tries per task (0/1 = no retries); TaskTimeout bounds each attempt
	// (0 = none); TaskBackoff spaces retries (default 250 ms when
	// retrying). ContinueOnError keeps independent branches running past
	// a failed stage: the run then returns its artifacts together with a
	// *dataflow.RunError listing every failure.
	TaskAttempts    int
	TaskTimeout     time.Duration
	TaskBackoff     time.Duration
	ContinueOnError bool

	// ExtendedFigures adds the operator views beyond the paper's set:
	// a system-load timeline and a queue-depth timeline.
	ExtendedFigures bool
	// SystemNodes is the capacity used by the utilization summary and
	// the timeline capacity line (0 leaves utilization unset).
	SystemNodes int

	// Tracer, when non-nil, records a hierarchical span per workflow
	// stage (curate, analyze, render, LLM) on top of the dataflow
	// engine's per-task spans; export it with obs.WriteChromeTrace. Nil
	// disables tracing.
	Tracer *obs.Tracer
	// Metrics, when non-nil, collects run counters (curate rows,
	// analyze merges, dataflow attempts, LLM calls) into one registry
	// servable at /metrics. Nil disables collection.
	Metrics *obs.Registry
}

// Every chart page and PNG is drawn at this size.
const chartWidth, chartHeight = 960, 540

func (c *Config) withDefaults() Config {
	out := *c
	if out.Workers <= 0 {
		out.Workers = 4
	}
	if out.IngestWorkers == 0 {
		out.IngestWorkers = runtime.GOMAXPROCS(0)
	}
	if out.TopUsers <= 0 {
		out.TopUsers = 50
	}
	if out.CacheDir == "" {
		out.CacheDir = filepath.Join(out.OutputDir, "cache")
	}
	return out
}

func (c *Config) validate() error {
	if c.Store == nil {
		return fmt.Errorf("core: config needs a store")
	}
	if c.SystemName == "" {
		return fmt.Errorf("core: config needs a system name")
	}
	if c.OutputDir == "" {
		return fmt.Errorf("core: config needs an output directory")
	}
	if c.Start.IsZero() || c.End.IsZero() || !c.Start.Before(c.End) {
		return fmt.Errorf("core: config window is empty")
	}
	if c.IngestWorkers < 0 {
		return fmt.Errorf("core: config IngestWorkers is negative (%d)", c.IngestWorkers)
	}
	if c.EnableAI && c.LLM == nil {
		return fmt.Errorf("core: AI subworkflow enabled without an LLM client")
	}
	return nil
}

// FigureResult locates one figure's artifacts.
type FigureResult struct {
	Key         string
	HTMLPath    string
	SpecPath    string
	PNGPath     string
	InsightPath string // empty when the AI stage is off
}

// Summaries carries the quantitative reading of each figure — the numbers
// EXPERIMENTS.md compares against the paper.
type Summaries struct {
	Volume       []analyze.VolumeByYear
	StepJobRatio float64
	Scale        analyze.ScaleSummary
	Waits        analyze.WaitSummary
	Users        analyze.UserBehaviorSummary
	Backfill     analyze.BackfillSummary
	Reclaimable  float64 // node-hours a perfect walltime predictor reclaims
	Load         analyze.UtilizationSummary
	Classes      []analyze.ClassSummary
}

// Facts flattens the summaries into the grounding the conversational
// agent answers from.
func (a *Artifacts) Facts(system string) llm.Facts { return a.Summaries.facts(system) }

func (s *Summaries) facts(system string) llm.Facts {
	var jobs, steps int64
	for _, v := range s.Volume {
		jobs += v.Jobs
		steps += v.Steps
	}
	return llm.Facts{
		System:               system,
		Jobs:                 jobs,
		Steps:                steps,
		StepJobRatio:         s.StepJobRatio,
		MedianWaitS:          s.Waits.P50,
		P90WaitS:             s.Waits.P90,
		LongWaitFrac:         s.Waits.LongWaits,
		OverestimateShare:    s.Backfill.OverestimateShare,
		MedianUseRatio:       s.Backfill.MedianUseRatio,
		BackfilledShare:      s.Backfill.BackfilledShare,
		ReclaimableNodeHours: s.Reclaimable,
		Users:                s.Users.Users,
		MeanFailedShare:      s.Users.MeanFailedShare,
		TopDecileFailures:    s.Users.TopDecileFailures,
		MeanUtilization:      s.Load.MeanUtilization,
		PeakQueueDepth:       s.Load.PeakQueueDepth,
		MedianNodes:          s.Scale.MedianNodes,
		SmallShortShare:      s.Scale.SmallShortShare,
	}
}

// Artifacts is everything a run leaves behind.
type Artifacts struct {
	Fetched       []sacct.FetchedFile
	Curation      curate.Report
	CSVPaths      []string
	Figures       map[string]*FigureResult
	DOTPath       string
	DashboardPath string
	ComparePath   string // LLM month-over-month wait comparison
	Records       int    // curated records (jobs + steps)
	Jobs          int    // job-level records
	Summaries     Summaries
	Trace         *dataflow.Trace
	StatusDOTPath string // post-run DOT annotated with task outcomes
	TraceJSONPath string // machine-readable run trace (stable schema)
	FactsPath     string // grounded agent facts (JSON)
	ReportPath    string // markdown analysis report
}

// analysis is the figure state and curation report of some records: one
// period's, as its chunk bundles in chunk order, handed from curate-<p>
// to combine, or the whole run's, as one bundle with its summaries,
// handed from combine to every task downstream. combine folds every
// chunk bundle in period order, then chunk order, which — because the
// streaming store emits records in (submit, job-id) order — reproduces
// the figure data of one bundle fed every record.
type analysis struct {
	chunks    []*analyze.Bundle // a period's
	bundle    *analyze.Bundle   // the run's
	report    curate.Report
	summaries Summaries
}

// adopt fills the artifact fields an analysis determines.
func (a *Artifacts) adopt(an analysis) {
	a.Curation = an.report
	a.Records, a.Jobs = int(an.bundle.Records), int(an.bundle.Jobs)
	a.Summaries = an.summaries
}

// annotate tags the current task's span (put on the context by the
// dataflow executor) with its workflow stage and any extra key/value
// pairs. A no-op when tracing is off.
func annotate(ctx context.Context, stage string, kv ...string) {
	sp := obs.SpanFromContext(ctx)
	if sp == nil {
		return
	}
	sp.SetAttr("stage", stage)
	for i := 0; i+1 < len(kv); i += 2 {
		sp.SetAttr(kv[i], kv[i+1])
	}
}

// Run executes the full hybrid workflow.
func Run(ctx context.Context, cfg Config) (*Artifacts, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	// Binary-backed stores mirror their column-read counters into the
	// run's registry (colstore_* metrics); a no-op otherwise.
	cfg.Store.Instrument(cfg.Metrics)
	for _, dir := range []string{cfg.OutputDir, cfg.CacheDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}

	spec := sacct.FetchSpec{
		Granularity:    cfg.Granularity,
		Start:          cfg.Start,
		End:            cfg.End,
		UseCache:       cfg.UseCache,
		CorruptionRate: cfg.CorruptionRate,
		CorruptionSeed: cfg.CorruptionSeed,
	}
	periods, err := spec.Periods()
	if err != nil {
		return nil, err
	}

	// Every in-memory hand-off between tasks is a dataflow value, named in
	// the writer's Writes and the readers' Reads like a file. A run that
	// skips combine (a curate task failed under ContinueOnError) reports
	// the analysis of an empty bundle.
	fetched := dataflow.NewValue[[]sacct.FetchedFile]("fetched")
	analyzed := dataflow.NewValue[analysis]("analysis")
	empty := analyze.NewBundle(TimelineBucket)
	analyzed.Set(ctx, analysis{bundle: empty, summaries: summarize(empty, cfg.SystemNodes)})

	cfg.Metrics.Gauge("ingest_workers_resolved").Set(int64(cfg.IngestWorkers))
	art := &Artifacts{Figures: map[string]*FigureResult{}}
	fetcher := &sacct.Fetcher{Store: cfg.Store, CacheDir: cfg.CacheDir, Workers: cfg.Workers}

	g := dataflow.NewGraph()

	// --- Static data-analysis subworkflow (the blue stages) ---

	periodPath := func(p string) string { return filepath.Join(cfg.CacheDir, sacct.PeriodFileName(p)) }
	obtainWrites := []string{fetched.Name()}
	for _, p := range periods {
		obtainWrites = append(obtainWrites, periodPath(p))
	}
	if err := g.Add(dataflow.Task{
		Name:   "obtain-data",
		Writes: obtainWrites,
		Run: func(ctx context.Context) error {
			files, err := fetcher.Fetch(ctx, spec)
			if err != nil {
				return err
			}
			annotate(ctx, "obtain", "periods", fmt.Sprint(len(files)))
			fetched.Set(ctx, files)
			return nil
		},
	}); err != nil {
		return nil, err
	}

	var csvPaths []string
	perPeriod := make([]*dataflow.Value[analysis], len(periods))
	combineReads := make([]string, len(periods))
	for i, p := range periods {
		csv := filepath.Join(cfg.OutputDir, "slurm-"+p+".csv")
		csvPaths = append(csvPaths, csv)
		out := dataflow.NewValue[analysis]("curated-" + p)
		perPeriod[i], combineReads[i] = out, out.Name()
		if err := g.Add(dataflow.Task{
			Name:   "curate-" + p,
			Reads:  []string{periodPath(p)},
			Writes: []string{csv, out.Name()},
			Run: func(ctx context.Context) error {
				// Single pass: one read of the period file feeds the CSV
				// sidecar and the figure collectors. The shards and report
				// stay attempt-local and are Set only on success, so a
				// retried attempt never half-counts a period.
				var rep curate.Report
				opts := curate.DefaultOptions()
				opts.Metrics = cfg.Metrics
				opts.Workers = cfg.IngestWorkers
				// Each chunk observes into its own collector shard, which
				// combine folds in chunk order so the figure data is
				// bit-exact at every width.
				shards := analyze.NewShardSet(TimelineBucket)
				chunks, err := curate.StreamFileParallel(periodPath(p), csv, opts, &rep,
					func(chunk int) func(*slurm.Record) bool {
						sb := shards.Shard(chunk)
						return func(rec *slurm.Record) bool {
							sb.Observe(rec)
							return true
						}
					})
				if err != nil {
					return err
				}
				// The shards count what they observed; publish it once
				// here rather than per record.
				bundles := shards.Bundles()
				var observed int64
				for _, b := range bundles {
					observed += b.Records
				}
				cfg.Metrics.Counter("analyze_records_observed_total").Add(observed)
				annotate(ctx, "curate", "period", p,
					"rows_kept", fmt.Sprint(rep.Kept),
					"rows_malformed", fmt.Sprint(rep.Malformed),
					"ingest_chunks", fmt.Sprint(chunks),
					"ingest_workers", fmt.Sprint(cfg.IngestWorkers))
				out.Set(ctx, analysis{chunks: bundles, report: rep})
				return nil
			},
		}); err != nil {
			return nil, err
		}
	}

	// combine runs only once every period is curated (a failed curate
	// task skips it), so every value it reads is set.
	if err := g.Add(dataflow.Task{
		Name:   "combine",
		Reads:  combineReads,
		Writes: []string{analyzed.Name()},
		Run: func(ctx context.Context) error {
			annotate(ctx, "analyze", "periods", fmt.Sprint(len(periods)))
			var an analysis
			var bundles []*analyze.Bundle
			for _, v := range perPeriod {
				period := v.Get(ctx)
				bundles = append(bundles, period.chunks...)
				an.report.Add(period.report)
			}
			// One presized copy of every chunk, in period then chunk
			// order, into a fresh bundle with no blocks, which the plot
			// tasks then only read. The inputs stay unmutated, so a
			// retried attempt is safe.
			start := time.Now()
			an.bundle = analyze.TreeMerge(TimelineBucket, bundles, 1)
			cfg.Metrics.Histogram("analyze_merge_seconds", obs.LatencyBuckets).ObserveSince(start)
			// Summarising also warms the timeline cache before the plot
			// tasks, which run concurrently and may only read the bundle.
			an.summaries = summarize(an.bundle, cfg.SystemNodes)
			analyzed.Set(ctx, an)
			return nil
		},
	}); err != nil {
		return nil, err
	}

	figureKeys := FigureKeys()
	if cfg.ExtendedFigures {
		figureKeys = append(figureKeys, ExtendedFigureKeys()...)
	}
	var htmlPaths []string
	charts := map[string]*dataflow.Value[*plot.Chart]{}
	for _, key := range figureKeys {
		fig := &FigureResult{
			Key:      key,
			HTMLPath: filepath.Join(cfg.OutputDir, key+".html"),
			SpecPath: filepath.Join(cfg.OutputDir, key+".json"),
		}
		art.Figures[key] = fig
		htmlPaths = append(htmlPaths, fig.HTMLPath)
		chartOut := dataflow.NewValue[*plot.Chart]("chart-" + key)
		charts[key] = chartOut
		if err := g.Add(dataflow.Task{
			Name:   "plot-" + key,
			Reads:  []string{analyzed.Name()},
			Writes: []string{fig.HTMLPath, fig.SpecPath, chartOut.Name()},
			Run: func(ctx context.Context) error {
				annotate(ctx, "render", "figure", key)
				chart, err := ChartFromBundle(key, cfg.SystemName, analyzed.Get(ctx).bundle, cfg.TopUsers, cfg.SystemNodes)
				if err != nil {
					return err
				}
				chartOut.Set(ctx, chart)
				spec, err := writePage(fig.HTMLPath, chart, chartWidth, chartHeight)
				if err != nil {
					return fmt.Errorf("rendering %s: %w", key, err)
				}
				return os.WriteFile(fig.SpecPath, spec, 0o644)
			},
		}); err != nil {
			return nil, err
		}
	}

	// Set before the graph runs: the report task links it.
	art.DashboardPath = filepath.Join(cfg.OutputDir, "dashboard.html")
	if err := g.Add(dataflow.Task{
		Name:   "dashboard",
		Reads:  htmlPaths,
		Writes: []string{art.DashboardPath},
		Run: func(ctx context.Context) error {
			annotate(ctx, "render")
			return os.WriteFile(art.DashboardPath, dashboardIndex(cfg.SystemName, art), 0o644)
		},
	}); err != nil {
		return nil, err
	}

	// --- User-defined AI subworkflow (the orange stages) ---

	if cfg.EnableAI {
		for _, key := range figureKeys {
			if key == FigVolume {
				continue // the volume bars carry little for the analyst
			}
			fig := art.Figures[key]
			fig.PNGPath = filepath.Join(cfg.OutputDir, key+".png")
			fig.InsightPath = filepath.Join(cfg.OutputDir, key+".insight.md")
			if err := g.Add(dataflow.Task{
				Name:   "html2png-" + key,
				Reads:  []string{fig.HTMLPath},
				Writes: []string{fig.PNGPath},
				Run: func(ctx context.Context) error {
					annotate(ctx, "render", "figure", key)
					return htmlToPNG(fig.HTMLPath, fig.PNGPath)
				},
			}); err != nil {
				return nil, err
			}
			if err := g.Add(dataflow.Task{
				Name:   "llm-insight-" + key,
				Reads:  []string{fig.PNGPath, fig.SpecPath, charts[key].Name()},
				Writes: []string{fig.InsightPath},
				Run: func(ctx context.Context) error {
					annotate(ctx, "llm", "figure", key)
					return runInsight(ctx, cfg, charts[key].Get(ctx), fig)
				},
			}); err != nil {
				return nil, err
			}
		}
		art.ComparePath = filepath.Join(cfg.OutputDir, "wait-times-compare.md")
		if err := g.Add(dataflow.Task{
			Name:   "llm-compare-waits",
			Reads:  []string{analyzed.Name()},
			Writes: []string{art.ComparePath},
			Run: func(ctx context.Context) error {
				annotate(ctx, "llm")
				return runCompare(ctx, cfg, analyzed.Get(ctx).bundle.Waits.Result(), art.ComparePath)
			},
		}); err != nil {
			return nil, err
		}
	}

	// Post-figure artifacts: the grounded fact sheet for the agent and
	// the markdown report (which inlines insights when the AI stage ran).
	art.FactsPath = filepath.Join(cfg.OutputDir, "facts.json")
	if err := g.Add(dataflow.Task{
		Name:   "export-facts",
		Reads:  []string{analyzed.Name()},
		Writes: []string{art.FactsPath},
		Run: func(ctx context.Context) error {
			annotate(ctx, "emit")
			s := analyzed.Get(ctx).summaries
			data, err := json.MarshalIndent(s.facts(cfg.SystemName), "", " ")
			if err != nil {
				return err
			}
			return os.WriteFile(art.FactsPath, data, 0o644)
		},
	}); err != nil {
		return nil, err
	}
	art.ReportPath = filepath.Join(cfg.OutputDir, "report.md")
	reportReads := []string{analyzed.Name()}
	for _, key := range figureKeys {
		if fig := art.Figures[key]; fig.InsightPath != "" {
			reportReads = append(reportReads, fig.InsightPath)
		}
	}
	if err := g.Add(dataflow.Task{
		Name:   "report",
		Reads:  reportReads,
		Writes: []string{art.ReportPath},
		Run: func(ctx context.Context) error {
			annotate(ctx, "emit")
			// A copy: art's own analysis fields are filled after the run.
			view := *art
			view.adopt(analyzed.Get(ctx))
			return WriteReport(&view, cfg.SystemName, art.ReportPath)
		},
	}); err != nil {
		return nil, err
	}

	// The Figure 2 artifact: the engine's own view of this run.
	art.DOTPath = filepath.Join(cfg.OutputDir, "workflow.dot")
	if err := g.Add(dataflow.Task{
		Name:   "export-dataflow",
		Writes: []string{art.DOTPath},
		Run: func(ctx context.Context) error {
			annotate(ctx, "emit")
			return os.WriteFile(art.DOTPath, []byte(g.DOT()), 0o644)
		},
	}); err != nil {
		return nil, err
	}

	ex := &dataflow.Executor{
		Workers: cfg.Workers,
		DefaultPolicy: dataflow.Policy{
			Attempts:        cfg.TaskAttempts,
			Timeout:         cfg.TaskTimeout,
			Backoff:         cfg.TaskBackoff,
			ContinueOnError: cfg.ContinueOnError,
		},
		Tracer:  cfg.Tracer,
		Metrics: cfg.Metrics,
	}
	trace, err := ex.Run(ctx, g)
	var runErr *dataflow.RunError
	if err != nil && !errors.As(err, &runErr) {
		return nil, err
	}

	// On a ContinueOnError partial failure the run still assembles every
	// artifact the surviving branches produced, and the caller gets the
	// full failure list alongside them.
	art.adopt(analyzed.Get(ctx))
	art.Fetched = fetched.Get(ctx)
	art.Trace = trace
	art.CSVPaths = csvPaths
	art.StatusDOTPath = filepath.Join(cfg.OutputDir, "workflow-status.dot")
	if werr := os.WriteFile(art.StatusDOTPath, []byte(g.DOTTrace(trace)), 0o644); werr != nil && err == nil {
		err = werr
	}
	art.TraceJSONPath = filepath.Join(cfg.OutputDir, "workflow-trace.json")
	if data, jerr := trace.JSON(); jerr != nil {
		if err == nil {
			err = jerr
		}
	} else if werr := os.WriteFile(art.TraceJSONPath, data, 0o644); werr != nil && err == nil {
		err = werr
	}
	return art, err
}

func summarize(b *analyze.Bundle, capacityNodes int) Summaries {
	vols := b.Volume.Result()
	return Summaries{
		Volume:       vols,
		StepJobRatio: analyze.StepJobRatio(vols),
		Scale:        analyze.SummarizeScale(b.Scale.Result()),
		Waits:        analyze.SummarizeWaits(b.Waits.Result()),
		Users:        analyze.SummarizeUsers(b.Users.Result(0)),
		Backfill:     analyze.SummarizeBackfill(b.Backfill.Result()),
		Reclaimable:  b.Reclaim.Result(),
		Load:         analyze.SummarizeTimeline(b.Timeline.Result(), capacityNodes),
		Classes:      b.Classes.Result(),
	}
}

// runInsight executes one LLM-Insight stage: PNG + spec → analyst prose.
func runInsight(ctx context.Context, cfg Config, chart *plot.Chart, fig *FigureResult) error {
	png, err := os.ReadFile(fig.PNGPath)
	if err != nil {
		return err
	}
	img, err := llm.EncodeImage(fig.Key, png, chart)
	if err != nil {
		return err
	}
	resp, err := cfg.LLM.Analyze(ctx, llm.InsightPrompt, img)
	if err != nil {
		return fmt.Errorf("llm insight for %s: %w", fig.Key, err)
	}
	return os.WriteFile(fig.InsightPath, insightMarkdown(fig.Key, resp), 0o644)
}

// runCompare reproduces the paper's month-over-month wait comparison: the
// window is split in half, a wait chart is built for each, and the pair
// goes to the LLM with the compare prompt.
func runCompare(ctx context.Context, cfg Config, points []analyze.WaitPoint, outPath string) error {
	if len(points) < 4 {
		return fmt.Errorf("llm compare: too few jobs (%d)", len(points))
	}
	// Points arrive in submit order, so the midpoint record splits the
	// window in half.
	mid := points[len(points)/2].Submit
	var early, late []analyze.WaitPoint
	for _, p := range points {
		if p.Submit.Before(mid) {
			early = append(early, p)
		} else {
			late = append(late, p)
		}
	}
	a := waitChart(cfg.SystemName+" (first half)", early)
	b := waitChart(cfg.SystemName+" (second half)", late)
	pngA, err := plot.PNG(a, chartWidth, chartHeight)
	if err != nil {
		return err
	}
	pngB, err := plot.PNG(b, chartWidth, chartHeight)
	if err != nil {
		return err
	}
	imgA, err := llm.EncodeImage("waits-first", pngA, a)
	if err != nil {
		return err
	}
	imgB, err := llm.EncodeImage("waits-second", pngB, b)
	if err != nil {
		return err
	}
	resp, err := cfg.LLM.Analyze(ctx, llm.ComparePrompt, imgA, imgB)
	if err != nil {
		return fmt.Errorf("llm compare: %w", err)
	}
	return os.WriteFile(outPath, insightMarkdown("wait-times-compare", resp), 0o644)
}

func insightMarkdown(key string, resp *llm.Response) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "# LLM analysis: %s\n\nmodel: %s\n\n%s\n\n## Statistics\n\n", key, resp.Model, resp.Text)
	keys := make([]string, 0, len(resp.Stats))
	for k := range resp.Stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "- %s: %.4f\n", k, resp.Stats[k])
	}
	return []byte(b.String())
}

// writePage streams chart's interactive page into path and returns the
// spec it embeds. A page that fails part-way is removed, not left torn.
func writePage(path string, chart *plot.Chart, width, height int) ([]byte, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	spec, err := plot.WriteHTML(f, chart, width, height)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return nil, err
	}
	return spec, nil
}

// htmlToPNG is the HTML2PNG stage: it recovers the chart spec embedded in
// a page and rasterises it, as the paper's headless-browser screenshot.
func htmlToPNG(htmlPath, pngPath string) error {
	page, err := os.ReadFile(htmlPath)
	if err != nil {
		return err
	}
	chart, err := plot.SpecFromHTML(page)
	if err != nil {
		return fmt.Errorf("html2png: %s: %w", htmlPath, err)
	}
	img, err := plot.PNG(chart, chartWidth, chartHeight)
	if err != nil {
		return err
	}
	return os.WriteFile(pngPath, img, 0o644)
}

// dashboardIndex renders the consolidated dashboard page linking every
// artifact (the Plotly-Dash substitute is served by internal/dashboard).
func dashboardIndex(system string, art *Artifacts) []byte {
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>SlurmSight dashboard</title><style>\n")
	b.WriteString("body{font-family:sans-serif;margin:2em;} iframe{border:1px solid #ccc;width:100%;height:600px;}\n")
	b.WriteString("h2{margin-top:2em;} .insight{background:#f7f7f7;padding:1em;border-left:4px solid #1f77b4;}\n")
	b.WriteString("</style></head><body>\n")
	fmt.Fprintf(&b, "<h1>Scheduling analytics: %s</h1>\n", html.EscapeString(system))
	for _, key := range append(FigureKeys(), ExtendedFigureKeys()...) {
		fig, ok := art.Figures[key]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "<h2>%s</h2>\n<iframe src=%q></iframe>\n", key, filepath.Base(fig.HTMLPath))
		if fig.InsightPath != "" {
			fmt.Fprintf(&b, "<p><a href=%q>LLM insight</a></p>\n", filepath.Base(fig.InsightPath))
		}
	}
	if art.ComparePath != "" {
		fmt.Fprintf(&b, "<p><a href=%q>LLM wait-time comparison</a></p>\n", filepath.Base(art.ComparePath))
	}
	b.WriteString("</body></html>\n")
	return []byte(b.String())
}
