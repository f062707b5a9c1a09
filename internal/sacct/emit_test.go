package sacct

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWriteAllocsDoNotScaleWithRows pins the obtain stage's emit path:
// once the row buffer has grown past its flush threshold it is reused,
// so writing four times the rows may cost a buffer growth step or two
// more and nothing else — no per-row string, parts slice or builder.
func TestWriteAllocsDoNotScaleWithRows(t *testing.T) {
	st, _ := buildStore(t, 40)
	const n = 500 // ~150 KB of full-selection text: past the threshold already
	if st.Len() < 4*n {
		t.Fatalf("store holds %d rows, need %d", st.Len(), 4*n)
	}
	q := Query{IncludeSteps: true}
	allocs := func(limit int) float64 {
		return testing.AllocsPerRun(5, func() {
			if got, err := st.WriteN(io.Discard, q, limit); err != nil || got != limit {
				t.Fatalf("WriteN(limit %d) = %d, %v", limit, got, err)
			}
		})
	}
	small, large := allocs(n), allocs(4*n)
	if large-small > 2 {
		t.Errorf("Write allocates %v times for %d rows and %v for %d: the emit path allocates per row", small, n, large, 4*n)
	}
}

// TestFetchRenameFailureRemovesTemp forces the last step of fetchOne to
// fail — the period's target path is a non-empty directory — and expects
// what every other failure of that function leaves: no temp file, and an
// error that names the period.
func TestFetchRenameFailureRemovesTemp(t *testing.T) {
	st, _ := buildStore(t, 2)
	dir := t.TempDir()
	target := filepath.Join(dir, PeriodFileName("2024-01"))
	if err := os.MkdirAll(filepath.Join(target, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	f := &Fetcher{Store: st, CacheDir: dir, Workers: 1}
	_, err := f.Fetch(context.Background(), FetchSpec{
		Granularity: Monthly, Start: base, End: base.AddDate(0, 0, 2),
	})
	if err == nil || !strings.Contains(err.Error(), "fetching 2024-01") {
		t.Errorf("rename onto a directory: err = %v, want one naming the period", err)
	}
	if _, serr := os.Stat(target + ".tmp"); !os.IsNotExist(serr) {
		t.Errorf("temp file left behind: stat err = %v", serr)
	}
}
