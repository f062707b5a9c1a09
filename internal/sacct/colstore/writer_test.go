package colstore

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"slurmsight/internal/slurm"
)

// TestWriteRefusesTimesTheFormatCannotHold: a row ending in 2400 went
// through Write and read back as a time in 1815, both with a nil error.
// Write, WriteFile and Seal refuse it alike, and nothing reaches the
// writer or the disk: no file, no temp file.
func TestWriteRefusesTimesTheFormatCannotHold(t *testing.T) {
	recs := genRecords(5, 3, monthStart(2024, time.May))
	recs[2].End = time.Date(2400, 1, 1, 0, 0, 0, 0, time.UTC)
	shards := []ShardInput{
		{Year: 2024, Mon: time.April, Records: genRecords(6, 50, monthStart(2024, time.April))},
		{Year: 2024, Mon: time.May, Records: recs},
	}
	_, sealErr := Seal(2024, time.May, recs)
	if sealErr == nil {
		t.Fatal("Seal took a row ending in 2400")
	}
	for _, workers := range []int{1, 2} {
		var buf bytes.Buffer
		err := writeWorkers(&buf, shards, workers)
		if err == nil || err.Error() != sealErr.Error() {
			t.Errorf("%d workers: Write returned %v, want Seal's error %q", workers, err, sealErr)
		}
		if buf.Len() != 0 {
			t.Errorf("%d workers: Write wrote %d bytes before refusing", workers, buf.Len())
		}
	}
	path := filepath.Join(t.TempDir(), "store.colstore")
	if err := WriteFile(path, shards); err == nil {
		t.Fatal("WriteFile took a row ending in 2400")
	}
	for _, p := range []string{path, path + ".tmp"} {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s is left behind (%v)", filepath.Base(p), err)
		}
	}
	// The bounds themselves are held, and read back as written.
	recs[2].End = time.Unix(0, 1<<63-1).UTC()
	recs[1].Start = time.Unix(0, -1<<63).UTC()
	sh, err := Seal(2024, time.May, recs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readRows(sh, AllColumns)
	if err != nil || !got[2].End.Equal(recs[2].End) || !got[1].Start.Equal(recs[1].Start) {
		t.Errorf("the bounds read back as %v and %v (%v)", got[2].End, got[1].Start, err)
	}
}

// TestWriteBytesIndependentOfWorkers: the golden Frontier rows, split
// into two shards, encode to the same bytes at every worker count —
// regions in column order, the same offsets and checksums — and one
// worker is what Seal writes for the shard alone.
func TestWriteBytesIndependentOfWorkers(t *testing.T) {
	recs := goldenFrontier(t)
	half := len(recs) / 2
	shards := []ShardInput{
		{Year: 2024, Mon: time.January, Records: recs[:half]},
		{Year: 2024, Mon: time.February, Records: recs[half:]},
	}
	var want bytes.Buffer
	if err := writeWorkers(&want, shards, 1); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		var got bytes.Buffer
		if err := writeWorkers(&got, shards, workers); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%d workers write %d bytes that differ from one worker's %d", workers, got.Len(), want.Len())
		}
	}
	var one bytes.Buffer
	if err := writeWorkers(&one, shards[:1], 4); err != nil {
		t.Fatal(err)
	}
	sh, err := Seal(2024, time.January, recs[:half])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sh.f.data, one.Bytes()) {
		t.Error("Seal's bytes differ from a four-worker Write of the same shard")
	}
}

// TestWriteMallocsDoNotScaleWithRows: encoding allocates per column and
// per shard, not per row. tresVal sorted each TRES map's keys in a slice
// of its own, twice a row on a trace build, and the Flags column rendered
// each row's flags into a fresh string.
func TestWriteMallocsDoNotScaleWithRows(t *testing.T) {
	shardOf := func(n int) []ShardInput {
		recs := genRecords(7, n, monthStart(2024, time.July))
		for i := range recs {
			r := &recs[i]
			r.TRESReq = slurm.TRES{"cpu": r.NCPUs, "mem": r.ReqMem, "node": r.NNodes}
			r.TRESUsageInAve = slurm.TRES{"cpu": r.NCPUs * 9 / 10, "mem": r.ReqMem / 2}
		}
		return []ShardInput{{Year: 2024, Mon: time.July, Records: recs}}
	}
	small, large := shardOf(2000), shardOf(8000)
	for _, workers := range []int{1, 2} {
		mallocs := func(shards []ShardInput) float64 {
			return testing.AllocsPerRun(3, func() {
				if err := writeWorkers(io.Discard, shards, workers); err != nil {
					t.Fatal(err)
				}
			})
		}
		a, b := mallocs(small), mallocs(large)
		t.Logf("%d workers: %.0f mallocs for 2,000 rows, %.0f for 8,000", workers, a, b)
		if b-a > 64 {
			t.Errorf("%d workers: 6,000 more TRES-bearing rows cost %.0f more mallocs, want a small constant", workers, b-a)
		}
	}
}
