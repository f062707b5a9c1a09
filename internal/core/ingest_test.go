package core

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"slurmsight/internal/sacct"
	"slurmsight/internal/slurm"
)

// TestWorkflowParallelIngestMatchesSequential pins the ingest plane's
// determinism contract end to end: a workflow run that splits every
// period file into chunks (IngestWorkers=4) must emit figure JSON and
// CSV sidecars byte-identical to the run that decodes each file as one
// chunk, with the same curation report.
func TestWorkflowParallelIngestMatchesSequential(t *testing.T) {
	seqCfg := baseConfig(t)
	seqCfg.IngestWorkers = 1 // one chunk per file (0 = auto)
	seqArt, err := Run(context.Background(), seqCfg)
	if err != nil {
		t.Fatal(err)
	}

	parCfg := baseConfig(t)
	parCfg.IngestWorkers = 4
	parArt, err := Run(context.Background(), parCfg)
	if err != nil {
		t.Fatal(err)
	}

	if parArt.Records != seqArt.Records || parArt.Curation != seqArt.Curation {
		t.Errorf("four-chunk run counted records=%d curation=%+v, one-chunk records=%d curation=%+v",
			parArt.Records, parArt.Curation, seqArt.Records, seqArt.Curation)
	}

	// Every CSV sidecar must be byte-identical.
	if len(parArt.CSVPaths) != len(seqArt.CSVPaths) {
		t.Fatalf("sidecar count %d vs %d", len(parArt.CSVPaths), len(seqArt.CSVPaths))
	}
	for i := range seqArt.CSVPaths {
		compareFiles(t, seqArt.CSVPaths[i], parArt.CSVPaths[i])
	}

	// Every figure spec must be byte-identical.
	for _, key := range FigureKeys() {
		sf, pf := seqArt.Figures[key], parArt.Figures[key]
		if sf == nil || pf == nil {
			t.Fatalf("figure %s missing (seq=%v par=%v)", key, sf != nil, pf != nil)
		}
		compareFiles(t, sf.SpecPath, pf.SpecPath)
	}
}

func compareFiles(t *testing.T, a, b string) {
	t.Helper()
	da, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(da) != string(db) {
		t.Errorf("%s differs from %s (%d vs %d bytes)",
			filepath.Base(b), filepath.Base(a), len(db), len(da))
	}
}

// TestWorkflowGoldenDigest pins the bytes of the curate stage end to
// end: every CSV sidecar, the curation report and every figure spec of
// a run over a corrupted trace, at ingest widths 1, 2 and 4. The
// constant was recorded at the commit before the string row reader and
// the sequential curate stream were deleted (d71e9a7), where width 1
// ran through them and widths 2 and 4 through the byte reader, so it is
// both readers' output the one surviving path must reproduce.
func TestWorkflowGoldenDigest(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		cfg := baseConfig(t)
		cfg.IngestWorkers = workers
		cfg.ExtendedFigures = true
		cfg.SystemNodes = 9408
		cfg.CorruptionRate, cfg.CorruptionSeed = 0.01, 5
		art, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		hashFile := func(path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(data)
		}
		for _, csv := range art.CSVPaths {
			hashFile(csv)
		}
		fmt.Fprintf(h, "%+v\n", art.Curation)
		for _, key := range append(FigureKeys(), ExtendedFigureKeys()...) {
			hashFile(art.Figures[key].SpecPath)
		}
		const want = 0xd0cadda332d491e5
		if got := h.Sum64(); got != want || art.Curation.Malformed == 0 {
			t.Errorf("workers=%d: sidecars + report %+v + figure specs digest to %#x, want %#x",
				workers, art.Curation, got, uint64(want))
		}
	}
}

// TestWorkflowPagesGoldenDigest pins what TestWorkflowGoldenDigest leaves
// out: the bytes of the seven figure pages and dashboard.html of the same
// run. The constant was recorded before the render plane streamed pages
// through one append emitter, from the fmt-based renderer.
func TestWorkflowPagesGoldenDigest(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cfg := baseConfig(t)
		cfg.IngestWorkers = workers
		cfg.ExtendedFigures = true
		cfg.SystemNodes = 9408
		cfg.CorruptionRate, cfg.CorruptionSeed = 0.01, 5
		art, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		hashFile := func(path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%s %d\n", filepath.Base(path), len(data))
			h.Write(data)
		}
		for _, key := range append(FigureKeys(), ExtendedFigureKeys()...) {
			hashFile(art.Figures[key].HTMLPath)
		}
		hashFile(art.DashboardPath)
		const want = 0xa940785d1b865b49
		if got := h.Sum64(); got != want {
			t.Errorf("workers=%d: figure pages + dashboard digest to %#x, want %#x", workers, got, uint64(want))
		}
	}
}

// TestWorkflowLongRowEndToEnd: a row the store loads is a row the
// workflow curates. A text trace with a 2 MiB Comment goes through
// sacct.Load and a whole run at one chunk and at four, and comes out in
// the sidecar intact with every figure drawn.
func TestWorkflowLongRowEndToEnd(t *testing.T) {
	comment := strings.Repeat("c", 2<<20)
	fields := slurm.SelectedNames()
	var text bytes.Buffer
	text.WriteString(slurm.Header(fields) + "\n")
	for i := 0; i < 40; i++ {
		submit := t0.Add(time.Duration(i) * time.Hour)
		rec := slurm.Record{
			ID: slurm.NewJobID(int64(7000 + i)), User: "alice", Account: "prj", Partition: "batch",
			Submit: submit, Eligible: submit, Start: submit.Add(10 * time.Minute), End: submit.Add(70 * time.Minute),
			Elapsed: time.Hour, Timelimit: 2 * time.Hour, NNodes: 8, NCPUs: 448, State: slurm.StateCompleted,
		}
		if i == 20 {
			rec.Comment = comment
		}
		line, err := slurm.EncodeRecord(&rec, fields)
		if err != nil {
			t.Fatal(err)
		}
		text.WriteString(line + "\n")
	}
	st, malformed, err := sacct.Load(&text)
	if err != nil || malformed != 0 || st.Len() != 40 {
		t.Fatalf("load: %d rows, %d malformed, %v", st.Len(), malformed, err)
	}

	var ref *Artifacts
	for _, workers := range []int{1, 4} {
		cfg := baseConfig(t)
		cfg.Store = st
		cfg.IngestWorkers = workers
		art, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if art.Curation.Kept != 40 || art.Curation.Malformed != 0 {
			t.Errorf("workers=%d: curation %+v, want 40 kept", workers, art.Curation)
		}
		sidecar, err := os.ReadFile(art.CSVPaths[0])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(sidecar, []byte(","+comment+",")) {
			t.Errorf("workers=%d: the 2 MiB comment is not in the sidecar (%d bytes)", workers, len(sidecar))
		}
		if ref == nil {
			ref = art
			continue
		}
		for i := range ref.CSVPaths {
			compareFiles(t, ref.CSVPaths[i], art.CSVPaths[i])
		}
		for _, key := range FigureKeys() {
			compareFiles(t, ref.Figures[key].SpecPath, art.Figures[key].SpecPath)
		}
	}
}
