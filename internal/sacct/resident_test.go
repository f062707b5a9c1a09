package sacct

import (
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"slurmsight/internal/sched/schedtest"
)

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestWarmHoldsNoRecords pins what a warm store costs: opened from the
// golden dump and warmed — every checksum verified, every dictionary
// read, every column indexed — it holds the footer, the dictionaries and
// the seek checkpoints, a few bytes a row, and not one record. The store
// this replaced held each row as a Record, 886 bytes of heap with its
// TRES maps. A full scan afterwards leaves nothing behind either.
func TestWarmHoldsNoRecords(t *testing.T) {
	res := schedtest.FrontierResult(t)
	mem := NewStore()
	if err := mem.Ingest(res); err != nil {
		t.Fatal(err)
	}
	mem.Finalize()
	path := dumpBinary(t, mem)
	rows := mem.Len()
	mem, res = nil, nil

	before := liveHeap()
	bin, err := OpenBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	defer bin.Close()
	if err := bin.Warm(); err != nil {
		t.Fatal(err)
	}
	warm := liveHeap()
	n := 0
	for _, err := range bin.Scan(Query{IncludeSteps: true}) {
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	scanned := liveHeap()
	runtime.KeepAlive(bin)

	const perRow = 64
	held, after := int64(warm)-int64(before), int64(scanned)-int64(before)
	t.Logf("%d rows: warm store holds %d B (%.1f B/row), %d B after a full scan", rows, held, float64(held)/float64(rows), after)
	if n != rows {
		t.Fatalf("scan yielded %d of %d rows", n, rows)
	}
	if held > perRow*int64(rows) || after > perRow*int64(rows) {
		t.Errorf("a warm store of %d rows holds %d B, %d B after a full scan; want at most %d B a row (%d B)", rows, held, after, perRow, perRow*rows)
	}
}

// TestReloadBeatsTextLoadTenfold is the reload bar the columnar store was
// built to clear: opening a binary dump is a footer parse, loading the
// same rows as text parses every one of them. Ten times is a floor — the
// measured ratio is in the thousands and grows with the trace.
func TestReloadBeatsTextLoadTenfold(t *testing.T) {
	st, _ := buildStore(t, 40)
	dir := t.TempDir()
	text, bin := filepath.Join(dir, "dump.txt"), filepath.Join(dir, "dump.colstore")
	if err := st.DumpFile(text); err != nil {
		t.Fatal(err)
	}
	if err := st.DumpBinaryFile(bin); err != nil {
		t.Fatal(err)
	}
	median := func(load func() (*Store, error)) time.Duration {
		var walls []time.Duration
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			loaded, err := load()
			walls = append(walls, time.Since(t0))
			if err != nil {
				t.Fatal(err)
			}
			if loaded.Len() != st.Len() {
				t.Fatalf("reloaded %d of %d rows", loaded.Len(), st.Len())
			}
			loaded.Close()
		}
		slices.Sort(walls)
		return walls[1]
	}
	textLoad := median(func() (*Store, error) { s, _, err := LoadFile(text); return s, err })
	binOpen := median(func() (*Store, error) { return OpenBinary(bin) })
	t.Logf("%d rows: text load %v, binary open %v (%.0fx)", st.Len(), textLoad, binOpen, float64(textLoad)/float64(binOpen))
	if textLoad < 10*binOpen {
		t.Errorf("binary open %v against text load %v: less than 10x faster", binOpen, textLoad)
	}
}
