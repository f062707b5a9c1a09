package curate

import (
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"slurmsight/internal/obs"
	"slurmsight/internal/slurm"
)

func TestStreamSinglePassCSVAndRecords(t *testing.T) {
	for _, w := range widths {
		recs, rows, rep, err := curateText(t, sampleWithJunk, DefaultOptions(), w)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Total != 6 || rep.Kept != 4 || rep.Malformed != 2 {
			t.Errorf("workers=%d: report = %+v", w, rep)
		}
		var users []string
		for i := range recs {
			users = append(users, recs[i].User)
		}
		if strings.Join(users, ",") != "alice,bob,carol,frank" {
			t.Errorf("workers=%d: users = %v", w, users)
		}
		if len(rows) != rep.Kept+1 {
			t.Fatalf("workers=%d: csv rows = %d", w, len(rows))
		}
		if rows[0][3] != "ElapsedMinutes" || rows[1][3] != "90.00" || rows[2][5] != "9400" {
			t.Errorf("workers=%d: normalisation missing: %v / %v", w, rows[0], rows[1])
		}
	}
}

func TestStreamNilCSVWriter(t *testing.T) {
	in := writePeriod(t, sample)
	for _, w := range widths {
		opts := Options{Workers: w}
		var rep Report
		shard, kept := keepRecords(w)
		if _, err := StreamFileParallel(in, "", opts, &rep, shard); err != nil {
			t.Fatal(err)
		}
		if n := len(kept()); n != 3 || rep.Kept != 3 {
			t.Errorf("workers=%d: n=%d rep=%+v", w, n, rep)
		}
	}
}

func TestStreamEarlyBreakStillFlushesCSV(t *testing.T) {
	in := writePeriod(t, sample)
	for _, w := range widths {
		csvPath := filepath.Join(t.TempDir(), "out.csv")
		var rep Report
		_, err := StreamFileParallel(in, csvPath, Options{Workers: w}, &rep,
			func(chunk int) func(*slurm.Record) bool {
				if chunk != 0 {
					return nil
				}
				return func(*slurm.Record) bool { return false } // abandon after the first record
			})
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(csvPath)
		if err != nil {
			t.Fatal(err)
		}
		// Header plus the one row that was handed over must have been
		// flushed; later chunks may or may not have run before the stop.
		want := "JobID,User,State,ElapsedMinutes,TimelimitMinutes,NNodes\n100001,alice,COMPLETED,90.00,120.00,128\n"
		if !strings.HasPrefix(string(data), want) || (w == 1 && string(data) != want) {
			t.Errorf("workers=%d: flushed sidecar = %q", w, data)
		}
	}
}

func TestStreamHeaderError(t *testing.T) {
	for _, w := range widths {
		recs, _, _, err := curateText(t, "JobID|Mystery\n", Options{}, w)
		if err == nil {
			t.Errorf("workers=%d: unknown header field: want terminal error", w)
		}
		if len(recs) != 0 {
			t.Errorf("workers=%d: unexpected records %+v", w, recs)
		}
	}
}

func TestStreamFileErrorsCarryPath(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad-period.txt")
	if err := os.WriteFile(bad, []byte("JobID|Mystery\n1|2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, w := range widths {
		var rep Report
		_, err := StreamFileParallel(bad, "", Options{Workers: w}, &rep, nil)
		if err == nil || !strings.Contains(err.Error(), "bad-period.txt") {
			t.Errorf("workers=%d: error lacks path: %v", w, err)
		}
		_, err = StreamFileParallel(bad, filepath.Join(dir, "out.csv"), Options{Workers: w}, &rep, nil)
		if err == nil || !strings.Contains(err.Error(), "bad-period.txt") {
			t.Errorf("workers=%d: error with a sidecar lacks path: %v", w, err)
		}
	}
}

// TestStreamFileOpensInputOnce pins the one pass at every width: each
// row, kept or malformed, is decoded once (the stream's own
// curate_rows_read_total), and the sidecar comes from that same pass.
func TestStreamFileOpensInputOnce(t *testing.T) {
	in := writePeriod(t, sampleWithJunk)
	for _, w := range widths {
		csvPath := filepath.Join(t.TempDir(), "jan.csv")
		opts := DefaultOptions()
		opts.Workers = w
		opts.Metrics = obs.NewRegistry()
		var rep Report
		var n atomic.Int64
		_, err := StreamFileParallel(in, csvPath, opts, &rep,
			func(int) func(*slurm.Record) bool {
				return func(*slurm.Record) bool { n.Add(1); return true }
			})
		if err != nil {
			t.Fatal(err)
		}
		if decoded := opts.Metrics.Counter("curate_rows_read_total").Value(); decoded != 6 {
			t.Errorf("workers=%d: rows decoded = %d, want 6 (one pass over kept+malformed)", w, decoded)
		}
		if n.Load() != 4 || rep.Kept != 4 {
			t.Errorf("workers=%d: n=%d rep=%+v", w, n.Load(), rep)
		}
		// The CSV sidecar must exist from the same pass.
		data, err := os.ReadFile(csvPath)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), "ElapsedMinutes") {
			t.Errorf("workers=%d: sidecar missing normalised header", w)
		}
	}
}
