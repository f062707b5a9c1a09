package core

import (
	"context"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"slurmsight/internal/analyze"
	"slurmsight/internal/curate"
	"slurmsight/internal/sacct"
	"slurmsight/internal/slurm"
)

// TestWorkflowSinglePassCounting pins the streaming pipeline's central
// claim with the curate package's pass counters: a run opens each period
// file exactly once, and decodes each row exactly once — the CSV sidecar
// and every figure are fed from that single pass.
func TestWorkflowSinglePassCounting(t *testing.T) {
	cfg := baseConfig(t)
	cfg.ExtendedFigures = true

	before := curate.Stats()
	art, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	after := curate.Stats()

	if len(art.Fetched) == 0 || art.Curation.Total == 0 {
		t.Fatalf("degenerate run: %d periods, %d rows", len(art.Fetched), art.Curation.Total)
	}
	opened := after.FilesOpened - before.FilesOpened
	if want := int64(len(art.Fetched)); opened != want {
		t.Errorf("opened %d period files, want exactly one open per period (%d)", opened, want)
	}
	decoded := after.RowsDecoded - before.RowsDecoded
	if want := int64(art.Curation.Total); decoded != want {
		t.Errorf("decoded %d rows, want one decode per record (%d): figures must share the pass", decoded, want)
	}
}

// TestWorkflowFiguresMatchDirectBuilders is the workflow-level golden
// test: the figure spec JSON written by the streaming per-period
// bundle-and-merge path must be byte-identical to charts built by an
// independent reference — every period file loaded into a store
// (sacct.LoadFile, never the curate stage), its records selected into
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
		st, _, err := sacct.LoadFile(filepath.Join(cfg.CacheDir, sacct.PeriodFileName(f.Period)))
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
