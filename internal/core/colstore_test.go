package core

import (
	"context"
	"path/filepath"
	"testing"

	"slurmsight/internal/obs"
	"slurmsight/internal/sacct"
)

// TestWorkflowColstoreParity pins the binary columnar store's golden
// contract: a workflow run over a store reloaded from DumpBinaryFile
// must emit figure JSON and CSV sidecars byte-identical to a run over
// the original in-memory store, with identical curation accounting.
func TestWorkflowColstoreParity(t *testing.T) {
	textCfg := baseConfig(t)
	textArt, err := Run(context.Background(), textCfg)
	if err != nil {
		t.Fatal(err)
	}

	binPath := filepath.Join(t.TempDir(), "store.colstore")
	if err := textCfg.Store.DumpBinaryFile(binPath); err != nil {
		t.Fatal(err)
	}
	binStore, _, err := sacct.OpenFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	defer binStore.Close()
	reg := obs.NewRegistry()
	binStore.Instrument(reg)
	if reg.Gauge("colstore_bytes_mapped").Value() == 0 {
		t.Fatal("binary dump not detected as columnar")
	}

	binCfg := baseConfig(t)
	binCfg.Store = binStore
	binCfg.Metrics = obs.NewRegistry()
	binArt, err := Run(context.Background(), binCfg)
	if err != nil {
		t.Fatal(err)
	}

	if binArt.Records != textArt.Records || binArt.Curation != textArt.Curation {
		t.Errorf("binary run records=%d curation=%+v, text records=%d curation=%+v",
			binArt.Records, binArt.Curation, textArt.Records, textArt.Curation)
	}
	if len(binArt.CSVPaths) != len(textArt.CSVPaths) {
		t.Fatalf("sidecar count %d vs %d", len(binArt.CSVPaths), len(textArt.CSVPaths))
	}
	for i := range textArt.CSVPaths {
		compareFiles(t, textArt.CSVPaths[i], binArt.CSVPaths[i])
	}
	for _, key := range FigureKeys() {
		tf, bf := textArt.Figures[key], binArt.Figures[key]
		if tf == nil || bf == nil {
			t.Fatalf("figure %s missing (text=%v bin=%v)", key, tf != nil, bf != nil)
		}
		compareFiles(t, tf.SpecPath, bf.SpecPath)
	}

	// The run's registry must show the columnar reads that fed it.
	if v := binCfg.Metrics.Counter("colstore_shards_opened_total").Value(); v == 0 {
		t.Error("workflow run did not record colstore shard opens")
	}
	if v := binCfg.Metrics.Counter("colstore_bytes_read_total").Value(); v == 0 {
		t.Error("workflow run did not record colstore bytes read")
	}
}
