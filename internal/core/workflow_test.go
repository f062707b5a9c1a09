package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"slurmsight/internal/curate"
	"slurmsight/internal/dataflow"
	"slurmsight/internal/llm"
)

// TestWorkflowEmitGoldenDigest pins the three files a single-system run
// emits after its figures: workflow.dot (the Figure 2 graph), report.md
// and facts.json, with the AI stages off and on. The constants were
// recorded before the run's in-memory hand-offs became dataflow values,
// so the declared graph must draw the edges the marker file drew.
func TestWorkflowEmitGoldenDigest(t *testing.T) {
	want := map[bool]uint64{false: 0x6bcbef7e4014aa75, true: 0xd2e133fc0240b5e2}
	for _, ai := range []bool{false, true} {
		cfg := baseConfig(t)
		cfg.ExtendedFigures = true
		cfg.SystemNodes = 9408
		cfg.CorruptionRate, cfg.CorruptionSeed = 0.01, 5
		if ai {
			ts := httptest.NewServer(llm.NewServer("sk-test").Handler())
			defer ts.Close()
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
			t.Errorf("ai=%v: workflow.dot + report.md + facts.json digest to %#x, want %#x", ai, got, want[ai])
		}
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
