package core

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"slurmsight/internal/analyze"
	"slurmsight/internal/cluster"
	"slurmsight/internal/llm"
	"slurmsight/internal/plot"
	"slurmsight/internal/sacct"
	"slurmsight/internal/sched"
	"slurmsight/internal/tracegen"
)

var t0 = time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)

var sharedStore *sacct.Store

// testStore simulates a 45-day Frontier workload once and shares it.
func testStore(t *testing.T) *sacct.Store {
	t.Helper()
	if sharedStore != nil {
		return sharedStore
	}
	p := tracegen.FrontierProfile()
	p.JobsPerDay, p.Users = 18, 20
	// Skew toward capability jobs so the small test workload still
	// saturates the machine and exercises backfill.
	for i := range p.Classes {
		switch p.Classes[i].Name {
		case "hero":
			p.Classes[i].Weight = 0.12
		case "capability":
			p.Classes[i].Weight = 0.30
		}
	}
	reqs, err := tracegen.Generate([]tracegen.Phase{{
		Profile: p, Start: t0, End: t0.AddDate(0, 0, 35),
	}}, 23)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := sched.New(sched.DefaultConfig(cluster.Frontier()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(reqs, sched.Options{EmitSteps: true})
	if err != nil {
		t.Fatal(err)
	}
	st := sacct.NewStore()
	if err := st.Ingest(res); err != nil {
		t.Fatal(err)
	}
	st.Finalize()
	sharedStore = st
	return st
}

func baseConfig(t *testing.T) Config {
	t.Helper()
	dir := t.TempDir()
	return Config{
		SystemName:  "frontier",
		Store:       testStore(t),
		OutputDir:   filepath.Join(dir, "out"),
		CacheDir:    filepath.Join(dir, "cache"),
		Granularity: sacct.Monthly,
		Start:       t0,
		End:         t0.AddDate(0, 0, 35),
		Workers:     4,
	}
}

func TestStaticWorkflowEndToEnd(t *testing.T) {
	cfg := baseConfig(t)
	art, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Fetched) < 2 {
		t.Errorf("fetched periods = %d, want ≥ 2 (35 days monthly)", len(art.Fetched))
	}
	if art.Records == 0 || art.Jobs == 0 || art.Records <= art.Jobs {
		t.Errorf("records=%d jobs=%d: want step-dominated trace", art.Records, art.Jobs)
	}
	if art.Curation.Kept != art.Records {
		t.Errorf("curation kept %d but %d records loaded", art.Curation.Kept, art.Records)
	}
	// Every figure artifact must exist and embed a recoverable spec.
	for _, key := range FigureKeys() {
		fig := art.Figures[key]
		if fig == nil {
			t.Fatalf("figure %s missing", key)
		}
		page, err := os.ReadFile(fig.HTMLPath)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if _, err := plot.SpecFromHTML(page); err != nil {
			t.Errorf("%s: embedded spec unreadable: %v", key, err)
		}
		if _, err := os.Stat(fig.SpecPath); err != nil {
			t.Errorf("%s spec json missing: %v", key, err)
		}
		if fig.PNGPath != "" || fig.InsightPath != "" {
			t.Errorf("%s has AI artifacts despite EnableAI=false", key)
		}
	}
	for _, csv := range art.CSVPaths {
		if _, err := os.Stat(csv); err != nil {
			t.Errorf("curated CSV missing: %v", err)
		}
	}
	dash, err := os.ReadFile(art.DashboardPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(dash), FigWaitTimes) {
		t.Error("dashboard does not reference the wait-times figure")
	}
	dot, err := os.ReadFile(art.DOTPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"obtain-data", "combine", "plot-" + FigBackfill, "dashboard"} {
		if !strings.Contains(string(dot), want) {
			t.Errorf("workflow.dot missing %q", want)
		}
	}
	// The summaries must reflect the paper's phenomena.
	s := art.Summaries
	if s.StepJobRatio < 5 {
		t.Errorf("StepJobRatio = %.1f", s.StepJobRatio)
	}
	if s.Backfill.OverestimateShare < 0.3 {
		t.Errorf("OverestimateShare = %.2f", s.Backfill.OverestimateShare)
	}
	if s.Backfill.BackfilledShare <= 0 {
		t.Errorf("no backfilled jobs in a contended workload")
	}
	if s.Reclaimable <= 0 {
		t.Errorf("Reclaimable = %v", s.Reclaimable)
	}
	if art.Trace.MaxConcurrency < 2 {
		t.Errorf("workflow never ran stages concurrently (max %d)", art.Trace.MaxConcurrency)
	}
}

func TestWorkflowWithAI(t *testing.T) {
	server := llm.NewServer("sk-test")
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()

	cfg := baseConfig(t)
	cfg.EnableAI = true
	cfg.LLM = llm.NewClient(ts.URL, "sk-test")
	art, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range FigureKeys() {
		fig := art.Figures[key]
		if key == FigVolume {
			if fig.InsightPath != "" {
				t.Error("volume figure should skip the AI stage")
			}
			continue
		}
		if _, err := os.Stat(fig.PNGPath); err != nil {
			t.Errorf("%s PNG missing: %v", key, err)
		}
		text, err := os.ReadFile(fig.InsightPath)
		if err != nil {
			t.Fatalf("%s insight missing: %v", key, err)
		}
		if !strings.Contains(string(text), "gemma-3-sim") {
			t.Errorf("%s insight lacks model attribution", key)
		}
		if !strings.Contains(string(text), "## Statistics") {
			t.Errorf("%s insight lacks the stats appendix", key)
		}
	}
	// The backfill figure's insight must carry the paper's headline
	// observation: systematic walltime over-estimation.
	text, _ := os.ReadFile(art.Figures[FigBackfill].InsightPath)
	if !strings.Contains(string(text), "overestimating") {
		t.Errorf("backfill insight lacks the over-estimation finding:\n%s", text)
	}
	compare, err := os.ReadFile(art.ComparePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(compare), "Comparing") {
		t.Errorf("compare artifact malformed:\n%s", compare)
	}
}

func TestWorkflowCacheReuse(t *testing.T) {
	cfg := baseConfig(t)
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	cfg.UseCache = true
	art, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range art.Fetched {
		if !f.Cached {
			t.Errorf("period %s re-fetched despite cache", f.Period)
		}
	}
}

func TestWorkflowCurationDropsCorruption(t *testing.T) {
	cfg := baseConfig(t)
	cfg.CorruptionRate = 0.01
	cfg.CorruptionSeed = 7
	art, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if art.Curation.Malformed == 0 {
		t.Error("corruption injected but nothing dropped")
	}
	frac := art.Curation.MalformedFraction()
	if frac <= 0 || frac > 0.03 {
		t.Errorf("malformed fraction = %v", frac)
	}
	if art.Records != art.Curation.Kept {
		t.Errorf("records %d != kept %d", art.Records, art.Curation.Kept)
	}
}

func TestWorkflowConfigValidation(t *testing.T) {
	base := baseConfig(t)
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"no store", func(c *Config) { c.Store = nil }},
		{"no system", func(c *Config) { c.SystemName = "" }},
		{"no output", func(c *Config) { c.OutputDir = "" }},
		{"empty window", func(c *Config) { c.End = c.Start }},
		{"ai without client", func(c *Config) { c.EnableAI = true }},
		{"negative ingest workers", func(c *Config) { c.IngestWorkers = -1 }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
}

func TestWorkflowCancellation(t *testing.T) {
	cfg := baseConfig(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, cfg); err == nil {
		t.Error("cancelled context: want error")
	}
}

func TestChartBuilders(t *testing.T) {
	b, err := analyze.Collect(testStore(t).Scan(sacct.Query{IncludeSteps: true}), TimelineBucket)
	if err != nil {
		t.Fatal(err)
	}
	charts := map[string]*plot.Chart{}
	for _, key := range append(FigureKeys(), ExtendedFigureKeys()...) {
		c, err := ChartFromBundle(key, "frontier", b, 25, 9408)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%s chart invalid: %v", key, err)
		}
		charts[key] = c
	}
	if got := len(charts[FigStates].Categories); got > 25 {
		t.Errorf("states chart has %d users, want ≤ 25", got)
	}
	if charts[FigNodesElapsed].Points() > 20000 {
		t.Errorf("nodes chart not downsampled: %d points", charts[FigNodesElapsed].Points())
	}
	// The backfill chart must distinguish the two scheduling paths.
	names := map[string]bool{}
	for _, s := range charts[FigBackfill].Series {
		names[s.Name] = true
	}
	if !names["regular"] || !names["backfilled"] {
		t.Errorf("backfill series = %v", names)
	}
	// The volume bars count both jobs and their steps.
	if vol := charts[FigVolume]; vol.Series[0].Y[0] <= 0 || vol.Series[1].Y[0] <= vol.Series[0].Y[0] {
		t.Errorf("volume chart series = %+v", vol.Series)
	}
	if _, err := ChartFromBundle("fig99-unknown", "frontier", b, 25, 0); err == nil {
		t.Error("unknown figure key: want error")
	}
}

// TestWorkflowFactsReportConcurrent runs export-facts and report — two
// tasks that both read the analysis value, and here nothing else — side
// by side many times, so that `go test -race` sees any artifact field
// one writes while the other reads.
func TestWorkflowFactsReportConcurrent(t *testing.T) {
	for i := 0; i < 20; i++ {
		cfg := baseConfig(t)
		cfg.Workers = 8
		art, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if art.Summaries.StepJobRatio == 0 {
			t.Fatalf("run %d: empty summaries", i)
		}
	}
}

func TestWorkflowFactsAndReportArtifacts(t *testing.T) {
	cfg := baseConfig(t)
	cfg.SystemNodes = 9408
	art, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(art.FactsPath)
	if err != nil {
		t.Fatal(err)
	}
	var facts llm.Facts
	if err := json.Unmarshal(data, &facts); err != nil {
		t.Fatal(err)
	}
	if facts.System != "frontier" || facts.Jobs == 0 || facts.StepJobRatio < 5 {
		t.Errorf("facts not grounded: %+v", facts)
	}
	if facts.MeanUtilization <= 0 {
		t.Errorf("utilization missing despite SystemNodes: %+v", facts)
	}
	report, err := os.ReadFile(art.ReportPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(report), "# Scheduling analysis report: frontier") {
		t.Errorf("report malformed")
	}
	// Both artifacts appear in the dataflow graph.
	dot, _ := os.ReadFile(art.DOTPath)
	for _, task := range []string{"export-facts", "report"} {
		if !strings.Contains(string(dot), task) {
			t.Errorf("task %s missing from workflow.dot", task)
		}
	}
}

// TestDashboardEscapesSystemName: the system name comes straight from
// schedflow -system, so markup in it must reach dashboard.html as text.
func TestDashboardEscapesSystemName(t *testing.T) {
	cfg := baseConfig(t)
	cfg.SystemName = `a<b & "c"`
	art, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	page, err := os.ReadFile(art.DashboardPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(page), "<h1>Scheduling analytics: a&lt;b &amp; &#34;c&#34;</h1>\n") {
		t.Errorf("dashboard heading not escaped:\n%s", page)
	}
	if strings.Contains(string(page), cfg.SystemName) {
		t.Error("dashboard carries the raw system name")
	}
}
