package sacct

import (
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"slurmsight/internal/sacct/colstore"
	"slurmsight/internal/slurm"
)

// shuffledBatches is every row of batches, shuffled and cut into batches
// of one to nine rows.
func shuffledBatches(rng *rand.Rand, batches [][]slurm.Record) [][]slurm.Record {
	rows := slices.Concat(batches...)
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	var out [][]slurm.Record
	for len(rows) > 0 {
		n := min(len(rows), 1+rng.Intn(9))
		out, rows = append(out, rows[:n]), rows[n:]
	}
	return out
}

// sameAnswers fails the test unless got and want give the same full scan
// and the same text to a draw of windows and filters.
func sameAnswers(t *testing.T, rng *rand.Rand, got, want *Store, what string) {
	t.Helper()
	wantKeys := scanKeys(t, want)
	if gotKeys := scanKeys(t, got); !slices.Equal(gotKeys, wantKeys) {
		t.Fatalf("%s: full scan differs from the reference's (%d rows against %d)", what, len(gotKeys), len(wantKeys))
	}
	months := want.Months()
	origin := months[0].Start()
	span := int64(months[len(months)-1].Next().Start().Sub(origin))
	users := []string{"", "u3", "u17", "u40"}
	for i := 0; i < 8; i++ {
		q := Query{IncludeSteps: i%2 == 0, User: users[rng.Intn(len(users))]}
		if rng.Intn(4) != 0 {
			q.Start = origin.Add(time.Duration(rng.Int63n(span)))
		}
		if rng.Intn(4) != 0 {
			q.End = origin.Add(time.Duration(rng.Int63n(span)))
			if !q.Start.IsZero() {
				q.End = q.Start.Add(time.Duration(1 + rng.Int63n(span/3)))
			}
		}
		if i%3 == 0 {
			q.Fields = []string{"JobID", "User", "Submit"}
		}
		if queryText(t, got, q) != queryText(t, want, q) {
			t.Fatalf("%s: query %+v differs from the reference's answer", what, q)
		}
	}
}

// TestAddKeepsScanOrder: rows Added in any order, with no Finalize, scan
// as the in-memory reference (addRef, then Finalize) leaves them — duplicate keys in arrival
// order — on a text store, on a store opened from a dump, and on one whose
// months hold a base shard, segments and in-memory rows at once: the full
// scan, and a draw of windows and filters after every batch.
func TestAddKeepsScanOrder(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		stream := appendStream(seed, 90)
		base := NewStore()
		for _, batch := range stream[:30] {
			if err := base.addRef(batch...); err != nil {
				t.Fatal(err)
			}
		}
		base.Finalize()
		path := dumpBinary(t, base)

		for _, kind := range []string{"text", "dump", "segments"} {
			rng := rand.New(rand.NewSource(seed))
			got, ref, live := NewStore(), NewStore(), stream[30:]
			if kind != "text" {
				live = stream[60:]
				var err error
				if got, err = OpenBinary(path); err != nil {
					t.Fatal(err)
				}
				defer got.Close()
				got.setSealLimits(16, 3)
				for _, batch := range stream[:30] {
					if err := ref.addRef(batch...); err != nil {
						t.Fatal(err)
					}
				}
				for _, batch := range stream[30:60] {
					if err := ref.addRef(batch...); err != nil {
						t.Fatal(err)
					}
					var err error
					if kind == "segments" {
						_, _, err = got.AppendBatch(slices.Clone(batch))
					} else {
						err = got.Add(batch...)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				ref.Finalize()
			}
			for b, batch := range shuffledBatches(rng, live) {
				if err := got.Add(batch...); err != nil {
					t.Fatal(err)
				}
				if err := ref.addRef(batch...); err != nil {
					t.Fatal(err)
				}
				ref.Finalize()
				sameAnswers(t, rng, got, ref, fmt.Sprintf("seed %d %s batch %d", seed, kind, b))
			}
			if tail := got.Tail(); kind == "segments" && (tail.Segments == 0 || tail.MemRows == 0) {
				t.Fatalf("seed %d: the segmented store ended with %+v; it must hold segments and Records", seed, tail)
			}
		}
	}
}

// unsortedFile writes rows, in the order given, to a columnar file of one
// shard a month, and returns its path and the shards as written. Rows out
// of scan order make the footer mark their shard unsorted.
func unsortedFile(t *testing.T, rows []slurm.Record) (string, []colstore.ShardInput) {
	t.Helper()
	var ins []colstore.ShardInput
	byMonth := map[Month]int{}
	for i := range rows {
		m := MonthOf(rows[i].Submit)
		at, ok := byMonth[m]
		if !ok {
			at, byMonth[m] = len(ins), len(ins)
			ins = append(ins, colstore.ShardInput{Year: m.Year, Mon: m.Mon})
		}
		ins[at].Records = append(ins[at].Records, rows[i])
	}
	path := filepath.Join(t.TempDir(), "unsorted.colstore")
	if err := writeFile(path, func(w io.Writer) error { return colstore.Write(w, ins) }); err != nil {
		t.Fatal(err)
	}
	return path, ins
}

// TestUnsortedShardFileScansInOrder: a columnar file written straight from
// shuffled rows marks its shards unsorted in the footer — the one way rows
// out of scan order still reach a store — and OpenBinary must scan it in
// recordCmp order, duplicate keys in file order, and keep doing so as
// AppendBatch lands batches beside it. An unsorted shard opens as its
// month's one segment, sorted, and a sorted one as its base shard: no
// month of an opened file holds Records.
func TestUnsortedShardFileScansInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	stream := appendStream(5, 80)
	rows := slices.Concat(stream[:40]...)
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	path, ins := unsortedFile(t, rows)
	f, err := colstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	sorted, unsorted := map[Month]bool{}, 0
	for _, sh := range f.Shards() {
		sorted[Month{sh.Year(), sh.Mon()}] = sh.Sorted()
		if !sh.Sorted() {
			unsorted++
		}
	}
	f.Close()
	if unsorted == 0 {
		t.Fatal("the shuffled file marks no shard unsorted")
	}

	got, err := OpenBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	for m, mo := range got.months {
		segs := 1
		if sorted[m] {
			segs = 0
		}
		if len(mo.mem) != 0 || (mo.base != nil) != sorted[m] || len(mo.segs) != segs {
			t.Errorf("%s (sorted %v) opened as base %v, %d segments, %d Records; want its base shard if sorted, else one segment",
				m, sorted[m], mo.base != nil, len(mo.segs), len(mo.mem))
		}
	}
	ref := NewStore()
	for _, in := range ins {
		if err := ref.addRef(in.Records...); err != nil {
			t.Fatal(err)
		}
	}
	ref.Finalize()
	sameAnswers(t, rng, got, ref, "opened")
	for b, batch := range stream[40:] {
		if _, _, err := got.AppendBatch(slices.Clone(batch)); err != nil {
			t.Fatal(err)
		}
		if err := ref.addRef(batch...); err != nil {
			t.Fatal(err)
		}
		ref.Finalize()
		sameAnswers(t, rng, got, ref, fmt.Sprintf("append batch %d", b))
	}
}
