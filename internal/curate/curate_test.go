package curate

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"testing"
	"time"

	"slurmsight/internal/slurm"
)

const sample = `JobID|User|State|Elapsed|Timelimit|NNodes
100001|alice|COMPLETED|01:30:00|02:00:00|128
100002|bob|FAILED|00:10:00|01:00:00|9.4K
100003|carol|CANCELLED|00:00:00|00:30:00|1
`

const sampleWithJunk = sample +
	"100004|dave|COMPLE\n" + // truncated mid-record
	"100005|eve|COMPLETED|xx:yy:zz|01:00:00|4\n" + // bad duration
	"100006|frank|COMPLETED|00:05:00|00:30:00|2\n"

// widths are the chunk counts every behaviour test runs at: the whole
// file as one chunk, and more chunks than some inputs have rows.
var widths = []int{1, 3}

// writePeriod materialises a period file's text and returns its path.
func writePeriod(t *testing.T, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "period.txt")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// keepRecords returns a ShardFunc that retains every record it is
// handed, and a function that yields them in file order afterwards.
func keepRecords(workers int) (ShardFunc, func() []slurm.Record) {
	perChunk := make([][]slurm.Record, workers) // chunk indices are unique and < workers
	shard := func(chunk int) func(*slurm.Record) bool {
		return func(rec *slurm.Record) bool {
			perChunk[chunk] = append(perChunk[chunk], rec.Clone())
			return true
		}
	}
	return shard, func() []slurm.Record {
		var all []slurm.Record
		for _, recs := range perChunk {
			all = append(all, recs...)
		}
		return all
	}
}

// curateText runs the stage over text at one width: the kept records in
// file order, the sidecar's rows, and the report.
func curateText(t *testing.T, text string, opts Options, workers int) ([]slurm.Record, [][]string, Report, error) {
	t.Helper()
	in := writePeriod(t, text)
	csvPath := filepath.Join(t.TempDir(), "period.csv")
	opts.Workers = workers
	shard, kept := keepRecords(workers)
	var rep Report
	if _, err := StreamFileParallel(in, csvPath, opts, &rep, shard); err != nil {
		return nil, nil, rep, err
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return kept(), rows, rep, nil
}

func TestLoadRecordsClean(t *testing.T) {
	for _, w := range widths {
		recs, _, rep, err := curateText(t, sample, Options{}, w)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Total != 3 || rep.Kept != 3 || rep.Malformed != 0 {
			t.Errorf("workers=%d: report = %+v", w, rep)
		}
		if len(recs) != 3 {
			t.Fatalf("workers=%d: records = %d", w, len(recs))
		}
		if recs[0].User != "alice" || recs[0].Elapsed != 90*time.Minute {
			t.Errorf("workers=%d: first record wrong: %+v", w, recs[0])
		}
		if recs[1].NNodes != 9400 {
			t.Errorf("workers=%d: K-count not parsed: %d", w, recs[1].NNodes)
		}
	}
}

func TestLoadRecordsDropsMalformed(t *testing.T) {
	for _, w := range widths {
		recs, _, rep, err := curateText(t, sampleWithJunk, Options{}, w)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Total != 6 || rep.Kept != 4 || rep.Malformed != 2 {
			// 100004 is truncated mid-record; 100005 has a bad duration.
			t.Errorf("workers=%d: report = %+v", w, rep)
		}
		if len(recs) != rep.Kept {
			t.Errorf("workers=%d: records %d != kept %d", w, len(recs), rep.Kept)
		}
		frac := rep.MalformedFraction()
		if frac <= 0 || frac >= 1 {
			t.Errorf("workers=%d: MalformedFraction = %v", w, frac)
		}
	}
}

func TestLoadRecordsErrors(t *testing.T) {
	for _, w := range widths {
		if _, _, _, err := curateText(t, "", Options{}, w); err == nil {
			t.Errorf("workers=%d: empty input: want error", w)
		}
		if _, _, _, err := curateText(t, "JobID|Mystery\n", Options{}, w); err == nil {
			t.Errorf("workers=%d: unknown header: want error", w)
		}
	}
}

func TestToCSVNormalisation(t *testing.T) {
	for _, w := range widths {
		_, rows, rep, err := curateText(t, sampleWithJunk, DefaultOptions(), w)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Kept != 4 || rep.Malformed != 2 {
			t.Errorf("workers=%d: report = %+v", w, rep)
		}
		if len(rows) != rep.Kept+1 {
			t.Fatalf("workers=%d: csv rows = %d", w, len(rows))
		}
		header := rows[0]
		if header[3] != "ElapsedMinutes" || header[4] != "TimelimitMinutes" {
			t.Errorf("workers=%d: header not renamed: %v", w, header)
		}
		// alice: 01:30:00 → 90.00 minutes.
		if rows[1][3] != "90.00" {
			t.Errorf("workers=%d: Elapsed minutes = %q", w, rows[1][3])
		}
		// bob's 9.4K nodes → 9400.
		if rows[2][5] != "9400" {
			t.Errorf("workers=%d: expanded count = %q", w, rows[2][5])
		}
	}
}

func TestToCSVFileAndLoadFiles(t *testing.T) {
	dir := t.TempDir()
	in1 := filepath.Join(dir, "jan.txt")
	in2 := filepath.Join(dir, "feb.txt")
	if err := os.WriteFile(in1, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(in2, []byte(sampleWithJunk), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, w := range widths {
		opts := DefaultOptions()
		opts.Workers = w
		// One report accumulates across the periods of a run.
		var rep Report
		shard, kept := keepRecords(w)
		outCSV := filepath.Join(dir, "jan.csv")
		if _, err := StreamFileParallel(in1, outCSV, opts, &rep, shard); err != nil || rep.Kept != 3 {
			t.Fatalf("workers=%d: jan: %+v, %v", w, rep, err)
		}
		if _, err := os.Stat(outCSV); err != nil {
			t.Fatal(err)
		}
		recs := kept()
		shard, kept = keepRecords(w)
		if _, err := StreamFileParallel(in2, "", opts, &rep, shard); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, kept()...)
		if rep.Total != 9 || len(recs) != rep.Kept {
			t.Errorf("workers=%d: combined report = %+v with %d records", w, rep, len(recs))
		}
		if _, err := StreamFileParallel(filepath.Join(dir, "nope.txt"), outCSV, opts, &rep, nil); err == nil {
			t.Errorf("workers=%d: missing input: want error", w)
		}
	}
}

func TestEmptyReportFraction(t *testing.T) {
	if (Report{}).MalformedFraction() != 0 {
		t.Error("empty report fraction should be 0")
	}
}
