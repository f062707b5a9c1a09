package core

import (
	"context"
	"fmt"
	"html"
	"os"
	"path/filepath"
	"strings"

	"slurmsight/internal/analyze"
	"slurmsight/internal/llm"
	"slurmsight/internal/plot"
	"slurmsight/internal/sacct"
)

// Member is one system in a federated analysis.
type Member struct {
	Config Config
}

// FederatedArtifacts is the product of a multi-cluster run: each member's
// own artifacts plus the cross-facility comparison layer — the paper's
// "multi-cluster and federated analytics" future-work item.
type FederatedArtifacts struct {
	Members map[string]*Artifacts
	// Comparison quantifies the pairwise contrast of the first two
	// members (the Frontier/Andes §4.3 shape).
	Comparison *analyze.SystemComparison
	// ComparisonChartPath is the side-by-side metric chart.
	ComparisonChartPath string
	// IndexPath is the federated dashboard page linking every member.
	IndexPath string
	// ComparePath is the LLM cross-facility interpretation (when AI ran).
	ComparePath string
}

// RunFederated executes the workflow for every member under
// outDir/<system> and builds the cross-facility layer. Members run
// sequentially (each already parallelises internally); at least two are
// required.
func RunFederated(ctx context.Context, outDir string, members []Member) (*FederatedArtifacts, error) {
	if len(members) < 2 {
		return nil, fmt.Errorf("core: federated analysis needs at least 2 members, got %d", len(members))
	}
	if outDir == "" {
		return nil, fmt.Errorf("core: federated analysis needs an output directory")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	fed := &FederatedArtifacts{Members: map[string]*Artifacts{}}
	names := make([]string, 0, len(members))
	bundles := map[string]*analyze.Bundle{}
	var aiClient *llm.Client
	for i := range members {
		cfg := members[i].Config
		if cfg.SystemName == "" {
			return nil, fmt.Errorf("core: federated member %d has no system name", i)
		}
		if _, dup := fed.Members[cfg.SystemName]; dup {
			return nil, fmt.Errorf("core: duplicate federated member %q", cfg.SystemName)
		}
		if cfg.OutputDir == "" {
			cfg.OutputDir = filepath.Join(outDir, cfg.SystemName)
		}
		art, err := Run(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("core: member %s: %w", cfg.SystemName, err)
		}
		fed.Members[cfg.SystemName] = art
		names = append(names, cfg.SystemName)
		b, err := analyze.Collect(cfg.Store.Scan(sacct.Query{Start: cfg.Start, End: cfg.End}), TimelineBucket)
		if err != nil {
			return nil, err
		}
		bundles[cfg.SystemName] = b
		if cfg.EnableAI && aiClient == nil {
			aiClient = cfg.LLM
		}
	}

	a, b := names[0], names[1]
	cmp := analyze.CompareSystems(a, bundles[a], b, bundles[b])
	fed.Comparison = &cmp

	chart := ComparisonChart(&cmp)
	fed.ComparisonChartPath = filepath.Join(outDir, "federated-comparison.html")
	if _, err := writePage(fed.ComparisonChartPath, chart, chartWidth, chartHeight); err != nil {
		return nil, err
	}

	fed.IndexPath = filepath.Join(outDir, "federated.html")
	if err := os.WriteFile(fed.IndexPath, federatedIndex(names, fed), 0o644); err != nil {
		return nil, err
	}

	// Cross-facility LLM comparison: the two systems' backfill figures
	// side by side (the §4.3 narrative, machine-generated).
	if aiClient != nil {
		chartA, err := ChartFromBundle(FigBackfill, a, bundles[a], 0, 0)
		if err != nil {
			return nil, err
		}
		chartB, err := ChartFromBundle(FigBackfill, b, bundles[b], 0, 0)
		if err != nil {
			return nil, err
		}
		pngA, err := plot.PNG(chartA, chartWidth, chartHeight)
		if err != nil {
			return nil, err
		}
		pngB, err := plot.PNG(chartB, chartWidth, chartHeight)
		if err != nil {
			return nil, err
		}
		imgA, err := llm.EncodeImage(a, pngA, chartA)
		if err != nil {
			return nil, err
		}
		imgB, err := llm.EncodeImage(b, pngB, chartB)
		if err != nil {
			return nil, err
		}
		resp, err := aiClient.Analyze(ctx, llm.ComparePrompt, imgA, imgB)
		if err != nil {
			return nil, fmt.Errorf("core: federated LLM compare: %w", err)
		}
		fed.ComparePath = filepath.Join(outDir, "federated-compare.md")
		if err := os.WriteFile(fed.ComparePath, insightMarkdown("federated-compare", resp), 0o644); err != nil {
			return nil, err
		}
	}
	return fed, nil
}

// ComparisonChart renders the §4.3 contrasts as grouped bars over shared,
// dimensionless metrics.
func ComparisonChart(cmp *analyze.SystemComparison) *plot.Chart {
	cats := []string{
		"small-short share", "overestimation share",
		"median use ratio", "mean failed share", "backfilled share",
	}
	rowOf := func(scale analyze.ScaleSummary, users analyze.UserBehaviorSummary, bf analyze.BackfillSummary) []float64 {
		return []float64{
			scale.SmallShortShare, bf.OverestimateShare,
			bf.MedianUseRatio, users.MeanFailedShare, bf.BackfilledShare,
		}
	}
	return &plot.Chart{
		Title:  fmt.Sprintf("Cross-facility comparison: %s vs %s", cmp.NameA, cmp.NameB),
		XLabel: "metric", YLabel: "share",
		Kind:       plot.GroupedBar,
		Categories: cats,
		Series: []plot.Series{
			{Name: cmp.NameA, Y: rowOf(cmp.ScaleA, cmp.UsersA, cmp.BackfillA), Color: "#1f77b4"},
			{Name: cmp.NameB, Y: rowOf(cmp.ScaleB, cmp.UsersB, cmp.BackfillB), Color: "#ff7f0e"},
		},
	}
}

func federatedIndex(names []string, fed *FederatedArtifacts) []byte {
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>Federated analytics</title><style>\n")
	b.WriteString("body{font-family:sans-serif;margin:2em;} iframe{border:1px solid #ccc;width:100%;height:600px;}\n")
	b.WriteString("</style></head><body>\n<h1>Cross-facility scheduling analytics</h1>\n")
	fmt.Fprintf(&b, "<iframe src=%q></iframe>\n", filepath.Base(fed.ComparisonChartPath))
	for _, name := range names {
		art := fed.Members[name]
		fmt.Fprintf(&b, "<h2>%s</h2>\n<p><a href=\"%s\">dashboard</a> — %d jobs, %d records</p>\n",
			html.EscapeString(name), html.EscapeString(name+"/dashboard.html"), art.Jobs, art.Records)
	}
	if fed.ComparePath != "" {
		fmt.Fprintf(&b, "<p><a href=%q>LLM cross-facility comparison</a></p>\n", filepath.Base(fed.ComparePath))
	}
	b.WriteString("</body></html>\n")
	return []byte(b.String())
}
