package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"image/png"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"slurmsight/internal/curate"
	"slurmsight/internal/dataflow"
	"slurmsight/internal/llm"
	"slurmsight/internal/plot"
)

// TestWorkflowEmitGoldenDigest pins the three files a single-system run
// emits after its figures: workflow.dot (the Figure 2 graph), report.md
// and facts.json, with the AI stages off and on. The constants were
// recorded before the run's in-memory hand-offs became dataflow values,
// so the declared graph must draw the edges the marker file drew, and
// re-recorded when report.md's dashboard link gained its target (the
// only byte change; TestReportLinksResolve). The bytes do not depend on
// how many chunks a period file is split into: the default (GOMAXPROCS)
// and 1, 3 and 8 give the same digest.
func TestWorkflowEmitGoldenDigest(t *testing.T) {
	want := map[bool]uint64{false: 0xba87f7278be5a62c, true: 0xa9265486273493bd}
	ts := httptest.NewServer(llm.NewServer("sk-test").Handler())
	defer ts.Close()
	for _, ai := range []bool{false, true} {
		for _, width := range []int{0, 1, 3, 8} {
			cfg := baseConfig(t)
			cfg.ExtendedFigures = true
			cfg.SystemNodes = 9408
			cfg.CorruptionRate, cfg.CorruptionSeed = 0.01, 5
			cfg.IngestWorkers = width
			if ai {
				cfg.EnableAI = true
				cfg.LLM = llm.NewClient(ts.URL, "sk-test")
			}
			art, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			for _, path := range []string{art.DOTPath, art.ReportPath, art.FactsPath} {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(h, "%s %d\n", filepath.Base(path), len(data))
				h.Write(data)
			}
			if got := h.Sum64(); got != want[ai] {
				t.Errorf("ai=%v, ingest width %d: workflow.dot + report.md + facts.json digest to %#x, want %#x", ai, width, got, want[ai])
			}
		}
	}
}

// TestReportLinksResolve reads every link target in report.md: each one
// names a file the run wrote beside the report. The dashboard link is the
// one a report written before the dashboard's path was known left empty.
func TestReportLinksResolve(t *testing.T) {
	art, err := Run(context.Background(), baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	report, err := os.ReadFile(art.ReportPath)
	if err != nil {
		t.Fatal(err)
	}
	links := regexp.MustCompile(`\[([^\]]+)\]\(([^)]*)\)`).FindAllStringSubmatch(string(report), -1)
	targets := map[string]string{}
	for _, l := range links {
		targets[l[1]] = l[2]
		if _, err := os.Stat(filepath.Join(filepath.Dir(art.ReportPath), l[2])); l[2] == "" || err != nil {
			t.Errorf("report links [%s](%s), which names no file the run wrote", l[1], l[2])
		}
	}
	if got := targets["dashboard"]; got != filepath.Base(art.DashboardPath) {
		t.Errorf("dashboard link target %q, want %q", got, filepath.Base(art.DashboardPath))
	}
}

// TestWorkflowCombineSkipped pins the path where a period's curate task
// fails under ContinueOnError: combine and everything downstream of it
// are skipped, and the artifacts carry the fetched files, no records and
// the summaries of an empty bundle.
func TestWorkflowCombineSkipped(t *testing.T) {
	cfg := baseConfig(t)
	cfg.ContinueOnError = true
	// A directory where curate-2024-03 must create its sidecar.
	if err := os.MkdirAll(filepath.Join(cfg.OutputDir, "slurm-2024-03.csv"), 0o755); err != nil {
		t.Fatal(err)
	}
	art, err := Run(context.Background(), cfg)
	var runErr *dataflow.RunError
	if !errors.As(err, &runErr) || len(runErr.Errs) != 1 {
		t.Fatalf("err = %v, want a *dataflow.RunError with 1 error", err)
	}
	if okN, failed, skipped, _ := art.Trace.Counts(); okN != 3 || failed != 1 || skipped != 9 {
		t.Errorf("trace: %d ok, %d failed, %d skipped; want 3, 1, 9", okN, failed, skipped)
	}
	if len(art.Fetched) != 2 || art.Records != 0 || art.Jobs != 0 {
		t.Errorf("fetched %d, records %d, jobs %d; want 2, 0, 0", len(art.Fetched), art.Records, art.Jobs)
	}
	if art.Curation != (curate.Report{}) {
		t.Errorf("curation %+v, want zero", art.Curation)
	}
	// Empty and nil slices and maps print alike: every field is zero.
	if got, zero := fmt.Sprintf("%+v", art.Summaries), fmt.Sprintf("%+v", Summaries{}); got != zero {
		t.Errorf("summaries %+v, want zero", art.Summaries)
	}
}

// TestHTMLToPNG runs the HTML2PNG stage on a page: the spec embedded in
// the HTML comes back as a decodable PNG, and a missing page or one
// without a spec is an error.
func TestHTMLToPNG(t *testing.T) {
	dir := t.TempDir()
	c := &plot.Chart{
		Title: "Wait times", XLabel: "submit", YLabel: "wait (s)",
		Kind: plot.Scatter, YScale: plot.Log10,
		Series: []plot.Series{
			{Name: "COMPLETED", X: []float64{1, 2, 3}, Y: []float64{10, 100, 1000}, Color: "#2ca02c"},
			{Name: "FAILED", X: []float64{1.5, 2.5}, Y: []float64{50, 500}, Marker: plot.Plus, Color: "#d62728"},
		},
	}
	htmlPath := filepath.Join(dir, "chart.html")
	if _, err := writePage(htmlPath, c, 640, 400); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "fromhtml.png")
	if err := htmlToPNG(htmlPath, outPath); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("invalid PNG: %v", err)
	}
	if b := img.Bounds(); b.Dx() != chartWidth || b.Dy() != chartHeight {
		t.Errorf("dimensions = %dx%d", b.Dx(), b.Dy())
	}

	if err := htmlToPNG(filepath.Join(dir, "missing.html"), outPath); err == nil {
		t.Error("missing HTML: want error")
	}
	bad := filepath.Join(dir, "nospec.html")
	os.WriteFile(bad, []byte("<html></html>"), 0o644)
	if err := htmlToPNG(bad, outPath); err == nil {
		t.Error("HTML without spec: want error")
	}
}
