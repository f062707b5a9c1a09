package core

import (
	"context"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"slurmsight/internal/analyze"
	"slurmsight/internal/obs"
	"slurmsight/internal/sacct"
	"slurmsight/internal/slurm"
)

// TestWorkflowSinglePassCounting pins the streaming pipeline's central
// claim from the run's own record: one curate-<p> task per period, run
// in one attempt, and one decode per row (the run registry's
// curate_rows_read_total) — the CSV sidecar and every figure are fed
// from that single pass.
func TestWorkflowSinglePassCounting(t *testing.T) {
	cfg := baseConfig(t)
	cfg.ExtendedFigures = true
	cfg.Metrics = obs.NewRegistry()

	art, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	if len(art.Fetched) == 0 || art.Curation.Total == 0 {
		t.Fatalf("degenerate run: %d periods, %d rows", len(art.Fetched), art.Curation.Total)
	}
	passes := map[string]int{}
	for _, task := range art.Trace.Tasks {
		if p, ok := strings.CutPrefix(task.Name, "curate-"); ok {
			passes[p] += len(task.Attempts)
		}
	}
	if len(passes) != len(art.Fetched) {
		t.Errorf("%d curate tasks for %d periods", len(passes), len(art.Fetched))
	}
	for _, f := range art.Fetched {
		if passes[f.Period] != 1 {
			t.Errorf("period %s curated in %d attempts, want one pass", f.Period, passes[f.Period])
		}
	}
	decoded := cfg.Metrics.Counter("curate_rows_read_total").Value()
	if want := int64(art.Curation.Total); decoded != want {
		t.Errorf("decoded %d rows, want one decode per record (%d): figures must share the pass", decoded, want)
	}
}

// TestWorkflowFiguresMatchDirectBuilders is the workflow-level golden
// test: the figure spec JSON written by the streaming per-period
// bundle-and-merge path must be byte-identical to charts built by an
// independent reference — every period file loaded into a store
// (sacct.OpenFile, never the curate stage), its records selected into
// one slice, globally sorted by job ID, and observed by one bundle in a
// single pass with no merge.
func TestWorkflowFiguresMatchDirectBuilders(t *testing.T) {
	cfg := baseConfig(t)
	cfg.ExtendedFigures = true
	cfg.SystemNodes = 9408

	art, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	var recs []slurm.Record
	for _, f := range art.Fetched {
		st, _, err := sacct.OpenFile(filepath.Join(cfg.CacheDir, sacct.PeriodFileName(f.Period)))
		if err != nil {
			t.Fatal(err)
		}
		period, err := st.Select(sacct.Query{IncludeSteps: true})
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, period...)
	}
	if len(recs) != art.Curation.Kept {
		t.Fatalf("reference holds %d records, the run kept %d", len(recs), art.Curation.Kept)
	}
	sort.SliceStable(recs, func(i, j int) bool {
		return slurm.CompareJobID(recs[i].ID, recs[j].ID) < 0
	})

	ref := analyze.NewBundle(TimelineBucket)
	for i := range recs {
		ref.Observe(&recs[i])
	}
	defaults := cfg.withDefaults()
	for _, key := range append(FigureKeys(), ExtendedFigureKeys()...) {
		chart, err := ChartFromBundle(key, cfg.SystemName, ref, defaults.TopUsers, cfg.SystemNodes)
		if err != nil {
			t.Fatal(err)
		}
		fig := art.Figures[key]
		if fig == nil {
			t.Fatalf("figure %s missing from run", key)
		}
		got, err := os.ReadFile(fig.SpecPath)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		wantJSON, err := chart.JSON()
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if string(got) != string(wantJSON) {
			t.Errorf("%s: streaming spec diverges from direct builder (%d vs %d bytes)",
				key, len(got), len(wantJSON))
		}
	}
}
