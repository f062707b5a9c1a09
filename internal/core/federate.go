package core

import (
	"context"
	"fmt"
	"html"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"slurmsight/internal/analyze"
	"slurmsight/internal/llm"
	"slurmsight/internal/plot"
)

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
// outDir/<system> (unless the member sets its own OutputDir) and builds
// the cross-facility layer from what the members wrote: the comparison
// from their summaries, the values each facts.json serialises, and the
// LLM note from their Figure 6 specs. Members run sequentially (each
// already parallelises internally); at least two are required, and
// every one is named, uniquely, before any runs.
func RunFederated(ctx context.Context, outDir string, members []Config) (*FederatedArtifacts, error) {
	if len(members) < 2 {
		return nil, fmt.Errorf("core: federated analysis needs at least 2 members, got %d", len(members))
	}
	if outDir == "" {
		return nil, fmt.Errorf("core: federated analysis needs an output directory")
	}
	names := make([]string, len(members))
	for i, cfg := range members {
		if cfg.SystemName == "" {
			return nil, fmt.Errorf("core: federated member %d has no system name", i)
		}
		if slices.Contains(names[:i], cfg.SystemName) {
			return nil, fmt.Errorf("core: duplicate federated member %q", cfg.SystemName)
		}
		names[i] = cfg.SystemName
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	fed := &FederatedArtifacts{Members: map[string]*Artifacts{}}
	var aiClient *llm.Client
	for _, cfg := range members {
		if cfg.OutputDir == "" {
			cfg.OutputDir = filepath.Join(outDir, cfg.SystemName)
		}
		art, err := Run(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("core: member %s: %w", cfg.SystemName, err)
		}
		fed.Members[cfg.SystemName] = art
		if cfg.EnableAI && aiClient == nil {
			aiClient = cfg.LLM
		}
	}

	a, b := fed.Members[names[0]].Summaries, fed.Members[names[1]].Summaries
	fed.Comparison = &analyze.SystemComparison{
		NameA: names[0], NameB: names[1],
		ScaleA: a.Scale, ScaleB: b.Scale,
		UsersA: a.Users, UsersB: b.Users,
		BackfillA: a.Backfill, BackfillB: b.Backfill,
	}

	fed.ComparisonChartPath = filepath.Join(outDir, "federated-comparison.html")
	if _, err := writePage(fed.ComparisonChartPath, comparisonChart(fed.Comparison), chartWidth, chartHeight); err != nil {
		return nil, err
	}

	fed.IndexPath = filepath.Join(outDir, "federated.html")
	if err := os.WriteFile(fed.IndexPath, federatedIndex(names, fed), 0o644); err != nil {
		return nil, err
	}

	// Cross-facility LLM comparison: the two systems' backfill figures,
	// as their runs wrote them, side by side (the §4.3 narrative,
	// machine-generated).
	if aiClient != nil {
		imgs := make([]llm.Image, 2)
		for i, name := range names[:2] {
			spec, err := os.ReadFile(fed.Members[name].Figures[FigBackfill].SpecPath)
			if err != nil {
				return nil, err
			}
			chart, err := plot.FromJSON(spec)
			if err != nil {
				return nil, err
			}
			png, err := plot.PNG(chart, chartWidth, chartHeight)
			if err != nil {
				return nil, err
			}
			imgs[i] = llm.Image{Name: name, PNG: png, Spec: string(spec)}
		}
		resp, err := aiClient.Analyze(ctx, llm.ComparePrompt, imgs...)
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

// comparisonChart renders the §4.3 contrasts as grouped bars over shared,
// dimensionless metrics.
func comparisonChart(cmp *analyze.SystemComparison) *plot.Chart {
	rowOf := func(scale analyze.ScaleSummary, users analyze.UserBehaviorSummary, bf analyze.BackfillSummary) []float64 {
		return []float64{
			scale.SmallShortShare, bf.OverestimateShare,
			bf.MedianUseRatio, users.MeanFailedShare, bf.BackfilledShare,
		}
	}
	return &plot.Chart{
		Title:  fmt.Sprintf("Cross-facility comparison: %s vs %s", cmp.NameA, cmp.NameB),
		XLabel: "metric", YLabel: "share",
		Kind: plot.GroupedBar,
		Categories: []string{
			"small-short share", "overestimation share",
			"median use ratio", "mean failed share", "backfilled share",
		},
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
