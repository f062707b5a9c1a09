package sacct

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"slurmsight/internal/slurm"
)

// farTime is a time the columnar format cannot hold: Unix nanoseconds
// wrap before 1678.
var farTime = time.Date(1600, time.March, 10, 0, 0, 0, 0, time.UTC)

// checkTail fails the test unless the store keeps its contract: no month
// but the newest holds Records, and the newest fewer than its seal limit.
func checkTail(t *testing.T, st *Store, what string) {
	t.Helper()
	st.mu.RLock()
	defer st.mu.RUnlock()
	newest, _ := st.lastMonthLocked()
	for m, mo := range st.months {
		if n := len(mo.mem); n > 0 && (m != newest || n >= st.limits.rows) {
			t.Fatalf("%s: %s holds %d Records; only the newest month, %s, may hold any, fewer than %d",
				what, m, n, newest, st.limits.rows)
		}
	}
}

// TestTextLoadSkipsRowsTheFormatCannotHold: a text dump holding a row
// submitted in 1600 loads with that row counted malformed. When Load kept
// it, a full scan returned it and the window enclosing its month did not,
// because the month's submit extent held its wrapped Unix nanoseconds.
func TestTextLoadSkipsRowsTheFormatCannotHold(t *testing.T) {
	rows := []slurm.Record{
		appendRec(1, 1, time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)),
		appendRec(2, 2, farTime),
		appendRec(3, 3, time.Date(2024, 3, 2, 0, 0, 0, 0, time.UTC)),
	}
	st, malformed, err := Load(bytes.NewReader(dumpText(t, rows)))
	if err != nil || malformed != 1 {
		t.Fatalf("Load: %d malformed, %v; want 1 malformed", malformed, err)
	}
	all, err := st.Select(Query{IncludeSteps: true})
	if err != nil {
		t.Fatal(err)
	}
	inMarch := 0
	for i := range all {
		if MonthOf(all[i].Submit) == MonthOf(farTime) {
			inMarch++
		}
	}
	window, err := st.Select(Query{IncludeSteps: true,
		Start: time.Date(1600, 3, 1, 0, 0, 0, 0, time.UTC), End: time.Date(1600, 4, 1, 0, 0, 0, 0, time.UTC)})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 || inMarch != len(window) {
		t.Errorf("a full scan returns %d rows, %d of them in March 1600; the window over that month returns %d; want 2, and the window to agree",
			len(all), inMarch, len(window))
	}
}

// TestFarRowDoesNotPinTheTail: a store once took a row starting in 1600
// into its newest month, which then could never seal: every later batch
// re-ran the month's failing Seal, and the month grew as Records without
// bound. AppendBatch now refuses the row, and the month seals as any
// other does.
func TestFarRowDoesNotPinTheTail(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	at := time.Date(2024, time.May, 1, 0, 0, 0, 0, time.UTC)
	row := func(i int) slurm.Record { return liveRow(rng, int64(i+1), at.Add(time.Duration(i)*time.Minute)) }
	st := NewStore()
	var first []slurm.Record
	for i := range 3999 {
		first = append(first, row(i))
	}
	if _, _, err := st.AppendBatch(first); err != nil {
		t.Fatal(err)
	}
	far := row(3999)
	far.Start = farTime
	gen := st.Generation()
	if _, _, err := st.AppendBatch([]slurm.Record{far}); err == nil || !strings.Contains(err.Error(), "is outside what the format holds") {
		t.Fatalf("AppendBatch of a row starting in 1600: %v", err)
	}
	if st.Generation() != gen || st.Len() != 3999 {
		t.Fatalf("the refused batch moved the store to %d rows, generation %d", st.Len(), st.Generation())
	}
	for b := range 50 {
		batch := make([]slurm.Record, 200)
		for i := range batch {
			batch[i] = row(4000 + 200*b + i)
		}
		if _, _, err := st.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
		if tail := st.Tail(); tail.MemRows >= sealRows {
			t.Fatalf("after batch %d the store holds %d Records, want fewer than %d", b, tail.MemRows, sealRows)
		}
	}
}

// TestStoreKeepsItsTail holds the store's contract over random call
// sequences: a store opened empty, from a text dump, or from a columnar
// file with unsorted shards, then given AppendBatch, Add and Ingest calls
// — late rows, duplicate keys, and now and then a row the format cannot
// hold, which refuses its whole batch — keeps Records only in its newest
// month, fewer than its seal limit, after every call, and scans as addRef
// of the rows it accepted.
func TestStoreKeepsItsTail(t *testing.T) {
	_, res := buildStore(t, 5)
	var resRows []slurm.Record
	for r := range res.Records {
		resRows = append(resRows, r.Clone())
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		stream := appendStream(seed, 70)
		ref := NewStore()
		var got *Store
		ingestAt := rng.Intn(len(stream) - 10)
		switch start := stream[:10]; seed % 3 {
		case 0:
			// Two December rows, then the January result at once: the
			// Ingest makes a later month the newest.
			got = NewStore()
			got.setSealLimits(4+rng.Intn(12), 1+rng.Intn(3))
			dec := time.Date(2023, time.December, 20, 0, 0, 0, 0, time.UTC)
			rows := []slurm.Record{appendRec(800001, 0, dec), appendRec(800002, 0, dec.Add(time.Hour))}
			if _, _, err := got.AppendBatch(slices.Clone(rows)); err != nil {
				t.Fatal(err)
			}
			if err := ref.addRef(rows...); err != nil {
				t.Fatal(err)
			}
			ingestAt = 0
		case 1:
			rows := slices.Concat(start...)
			far := appendRec(900000, 0, farTime)
			text := dumpText(t, slices.Insert(slices.Clone(rows), rng.Intn(len(rows)), far))
			var malformed int
			var err error
			if got, malformed, err = Load(bytes.NewReader(text)); err != nil || malformed != 1 {
				t.Fatalf("seed %d: Load: %d malformed, %v; want 1 malformed", seed, malformed, err)
			}
			if err := ref.addRef(rows...); err != nil {
				t.Fatal(err)
			}
		case 2:
			rows := slices.Concat(start...)
			rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
			path, ins := unsortedFile(t, rows)
			var err error
			if got, err = OpenBinary(path); err != nil {
				t.Fatal(err)
			}
			defer got.Close()
			got.setSealLimits(4+rng.Intn(12), 1+rng.Intn(3))
			for _, in := range ins {
				if err := ref.addRef(in.Records...); err != nil {
					t.Fatal(err)
				}
			}
		}
		check := func(what string) {
			t.Helper()
			checkTail(t, got, what)
			if ref.Len() == 0 {
				if got.Len() != 0 {
					t.Fatalf("%s: the store holds %d rows, want none", what, got.Len())
				}
				return
			}
			sameAnswers(t, rng, got, ref, what)
		}
		check(fmt.Sprintf("seed %d: opened", seed))

		for b, batch := range stream[10:] {
			what := fmt.Sprintf("seed %d batch %d", seed, b)
			if b == ingestAt {
				if err := got.Ingest(res); err != nil {
					t.Fatal(err)
				}
				if err := ref.addRef(resRows...); err != nil {
					t.Fatal(err)
				}
				check(what + ": Ingest")
			}
			mine := slices.Clone(batch)
			refused := rng.Intn(6) == 0
			if refused {
				far := appendRec(900000+b, 0, batch[0].Submit)
				if rng.Intn(2) == 0 {
					far.Submit = farTime
				} else {
					far.End = time.Date(2400, 1, 1, 0, 0, 0, 0, time.UTC)
				}
				mine = slices.Insert(mine, rng.Intn(len(mine)+1), far)
			}
			gen, rows := got.Generation(), got.Len()
			var err error
			if rng.Intn(2) == 0 {
				_, _, err = got.AppendBatch(mine)
			} else {
				err = got.Add(mine...)
			}
			switch {
			case refused && (err == nil || got.Generation() != gen || got.Len() != rows):
				t.Fatalf("%s: a batch with a row the format cannot hold returned %v and left %d rows, generation %d; want an error, %d rows, generation %d",
					what, err, got.Len(), got.Generation(), rows, gen)
			case !refused && err != nil:
				t.Fatalf("%s: %v", what, err)
			case !refused:
				if err := ref.addRef(batch...); err != nil {
					t.Fatal(err)
				}
			}
			check(what)
		}
	}
}
