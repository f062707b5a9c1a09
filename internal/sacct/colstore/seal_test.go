package colstore

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"slurmsight/internal/slurm"
)

// TestSealIsAOneShardFile: the bytes Seal holds are the file Write
// produces for that one shard, a file Open reads back, and the shard Seal
// returns reads the records back through a cursor — every field, nil and
// empty TRES maps apart — with every column already loaded.
func TestSealIsAOneShardFile(t *testing.T) {
	recs := genRecords(3, 700, monthStart(2024, time.March))
	slices.SortStableFunc(recs, func(a, b slurm.Record) int { return recordCompare(&a, &b) })
	for i := range recs {
		if i%7 == 0 {
			recs[i].TRESReq = slurm.TRES{}
		}
	}
	sh, err := Seal(2024, time.March, recs)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := Write(&want, []ShardInput{{Year: 2024, Mon: time.March, Records: recs}}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sh.f.data, want.Bytes()) || cap(sh.f.data) != len(sh.f.data) {
		t.Fatalf("Seal holds %d bytes (cap %d), Write writes %d; want the same bytes in a slice of their own size",
			len(sh.f.data), cap(sh.f.data), want.Len())
	}
	if sh.FileSize() != int64(want.Len()) || sh.Rows() != len(recs) || !sh.Sorted() || sh.Year() != 2024 || sh.Mon() != time.March {
		t.Fatalf("sealed shard: %d bytes, %d rows, sorted %v, %s", sh.FileSize(), sh.Rows(), sh.Sorted(), sh)
	}
	for ci := range sh.cols {
		if !sh.cols[ci].loaded.Load() {
			t.Fatalf("column %s is not loaded", columns[ci].name)
		}
	}
	got, err := readRows(sh, AllColumns)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatal("the sealed shard reads back different records")
	}

	path := filepath.Join(t.TempDir(), "sealed.colstore")
	if err := os.WriteFile(path, sh.f.data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	onDisk, err := readRows(f.Shards()[0], AllColumns)
	if err != nil || !reflect.DeepEqual(onDisk, recs) {
		t.Fatalf("the sealed bytes written to disk read back differently (%v)", err)
	}
}

// TestSealAllocatesWhatItHolds: sealing a small month costs a few times
// its own bytes, not the megabyte of buffering Write puts in front of a
// stream.
func TestSealAllocatesWhatItHolds(t *testing.T) {
	recs := genRecords(4, 200, monthStart(2024, time.April))
	slices.SortStableFunc(recs, func(a, b slurm.Record) int { return recordCompare(&a, &b) })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sh, err := Seal(2024, time.April, recs)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d rows: %d B file, %d B allocated", len(recs), sh.FileSize(), allocated)
	if allocated > 256<<10 {
		t.Errorf("sealing %d rows (%d B) allocated %d B", len(recs), sh.FileSize(), allocated)
	}
}

// TestSealRefusesTimesTheFormatCannotHold: a time past what int64 unix
// nanoseconds span would come back as a different time, so Seal refuses
// the rows instead.
func TestSealRefusesTimesTheFormatCannotHold(t *testing.T) {
	recs := genRecords(5, 3, monthStart(2024, time.May))
	recs[2].End = time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC)
	if _, err := Seal(2024, time.May, recs); err == nil {
		t.Fatal("a row ending in 2300 was sealed")
	}
}

// TestTruncatedFileIsCorruptNotSIGBUS: a file truncated under an open
// File faults on the mapped pages it lost. A first Load of a column there
// is ErrCorrupt, and the process lives on.
func TestTruncatedFileIsCorruptNotSIGBUS(t *testing.T) {
	recs := genRecords(6, 4000, monthStart(2024, time.June))
	path := writeTemp(t, []ShardInput{{Year: 2024, Mon: time.June, Records: recs}})
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if !f.mapped {
		t.Skip("the file is not mapped here; nothing can fault")
	}
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	err = f.Shards()[0].Load(context.Background(), AllColumns)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("loading a truncated file: %v, want ErrCorrupt", err)
	}
	t.Log(err)
}
