package sacct

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"slurmsight/internal/obs"
	"slurmsight/internal/sacct/colstore"
	"slurmsight/internal/slurm"
)

// TestSealRuleScansLikeAddFinalize holds the seal rule to the pair it must
// read like. With the limits lowered so a few hundred rows seal and fold
// many times over, the same batches through AppendBatch and through
// Add+Finalize leave the same full scan and the same answer to a draw of
// windows and filters after every batch, AppendBatch's tail verdict keeps
// its definition, and the store holds Records only in its newest month,
// fewer than the seal limit.
func TestSealRuleScansLikeAddFinalize(t *testing.T) {
	const limit = 16
	for seed := int64(1); seed <= 4; seed++ {
		got, want := NewStore(), NewStore()
		got.setSealLimits(limit, 3)
		reg := obs.NewRegistry()
		got.Instrument(reg)
		rng := rand.New(rand.NewSource(seed))
		tails := 0
		for b, batch := range appendStream(seed, 120) {
			if err := want.Add(batch...); err != nil {
				t.Fatal(err)
			}
			want.Finalize()
			before := scanKeys(t, got)
			gen0 := got.Generation()
			mine := slices.Clone(batch)
			gen, tail, err := got.AppendBatch(mine)
			if err != nil {
				t.Fatal(err)
			}
			if gen != gen0+1 || got.Generation() != gen {
				t.Fatalf("seed %d batch %d: generation %d → %d (returned %d), want one step", seed, b, gen0, got.Generation(), gen)
			}
			after := scanKeys(t, got)
			if !slices.Equal(after, scanKeys(t, want)) {
				t.Fatalf("seed %d batch %d: scan differs from Add+Finalize", seed, b)
			}
			var sorted []string
			for i := range mine {
				sorted = append(sorted, recKey(&mine[i]))
			}
			if isTail := slices.Equal(after, append(before, sorted...)); tail != isTail {
				t.Fatalf("seed %d batch %d: tail = %v, but old scan + batch == new scan is %v", seed, b, tail, isTail)
			}
			if tail {
				tails++
			}
			months := got.Months()
			newest := months[len(months)-1]
			for m, mo := range got.months {
				if shard := mo.mem; len(shard) > 0 && m != newest || len(shard) >= limit {
					t.Fatalf("seed %d batch %d: %d Records held in %s (newest %s)", seed, b, len(shard), m, newest)
				}
			}
			origin := months[0].Start()
			span := int64(newest.Next().Start().Sub(origin))
			for i := 0; i < 4; i++ {
				q := Query{Start: origin.Add(time.Duration(rng.Int63n(span))), IncludeSteps: i%2 == 0}
				q.End = q.Start.Add(time.Duration(1 + rng.Int63n(span/4)))
				if i == 3 {
					q.Fields, q.User = []string{"JobID", "User"}, mine[0].User
				}
				if queryText(t, got, q) != queryText(t, want, q) {
					t.Fatalf("seed %d batch %d: query %+v differs from Add+Finalize's answer", seed, b, q)
				}
			}
		}
		seals, folds := reg.Counter("sacct_seals_total").Value(), reg.Counter("sacct_folds_total").Value()
		if tails == 0 || seals == 0 || folds == 0 {
			t.Fatalf("seed %d: %d tail appends, %d seals, %d folds; the stream must reach all three", seed, tails, seals, folds)
		}
	}
}

// liveRow is one row of the shape a live tailer posts: the dozen fields
// of loopbench's serve-live stream, strings shared between rows as a
// decoder's interning shares them.
func liveRow(rng *rand.Rand, id int64, submit time.Time) slurm.Record {
	users := [...]string{"u01", "u02", "u03", "u04", "u05", "u06", "u07", "u08"}
	elapsed := time.Duration(1+rng.Intn(240)) * time.Minute
	wait := time.Duration(rng.Intn(7200)) * time.Second
	r := slurm.Record{
		ID:        slurm.NewJobID(id),
		User:      users[rng.Intn(len(users))],
		Account:   "bench",
		Partition: "batch",
		Submit:    submit,
		Start:     submit.Add(wait),
		End:       submit.Add(wait + elapsed),
		Elapsed:   elapsed,
		Timelimit: elapsed + time.Duration(rng.Intn(120))*time.Minute,
		State:     slurm.State(rng.Intn(4)),
		NNodes:    int64(1 + rng.Intn(64)),
	}
	r.NCPUs = 64 * r.NNodes
	return r
}

// TestLiveTailHoldsFewRecords pins what the live tail costs, the way
// TestWarmHoldsNoRecords pins a warm store: 50,000 rows appended in
// batches of 200 — a tail that crosses several months, every eighth
// batch late into the first — leave Records only in the newest month,
// fewer than sealRows of them, and at most 150 B of heap per appended row.
// The store this replaced held every appended row as a 760-byte Record.
func TestLiveTailHoldsFewRecords(t *testing.T) {
	const batches, rows, perRow = 250, 200, 150
	rng := rand.New(rand.NewSource(28))
	first := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	cursor, id := first, int64(1)

	before := liveHeap()
	st := NewStore()
	for b := 0; b < batches; b++ {
		batch := make([]slurm.Record, rows)
		for i := range batch {
			submit := cursor
			if b%8 == 7 {
				submit = first.Add(time.Duration(rng.Int63n(int64(30 * 24 * time.Hour))))
			} else {
				cursor = cursor.Add(time.Duration(1+rng.Intn(5)) * time.Minute)
			}
			batch[i] = liveRow(rng, id, submit)
			id++
		}
		if _, _, err := st.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	held := int64(liveHeap()) - int64(before)
	runtime.KeepAlive(st)

	months := st.Months()
	newest := months[len(months)-1]
	tail := st.Tail()
	t.Logf("%d rows over %d months: %d B held (%.1f B/row); %d Records in %s, %d segments of %d B",
		batches*rows, len(months), held, float64(held)/(batches*rows), tail.MemRows, newest, tail.Segments, tail.SegmentBytes)
	if st.Len() != batches*rows {
		t.Fatalf("store holds %d rows, want %d", st.Len(), batches*rows)
	}
	for m, mo := range st.months {
		if shard := mo.mem; len(shard) > 0 && m != newest {
			t.Errorf("%d Records held in %s, which is not the newest month", len(shard), m)
		}
	}
	if n := len(st.months[newest].mem); n >= sealRows {
		t.Errorf("%d Records held in the newest month, want fewer than %d", n, sealRows)
	}
	if held > perRow*batches*rows {
		t.Errorf("the live tail holds %d B for %d appended rows, want at most %d B a row", held, batches*rows, perRow)
	}
}

// TestScansDuringSealsAndFolds: with 1, 2, 4 and 8 scanners snapshotting a
// store opened from a dump while AppendBatch lands batches — sealing and
// folding far more often than the real limits would, on a store whose
// months merge sealed rows, segments and Records — every snapshot yields
// exactly the rows of the generation it is labelled with, in scan order.
func TestScansDuringSealsAndFolds(t *testing.T) {
	stream := appendStream(9, 150)
	ref := NewStore()
	for _, batch := range stream[:40] {
		if err := ref.Add(batch...); err != nil {
			t.Fatal(err)
		}
	}
	ref.Finalize()
	path := dumpBinary(t, ref)
	digest := func(keys []string) uint64 {
		h := fnv.New64a()
		for _, k := range keys {
			h.Write([]byte(k))
		}
		return h.Sum64()
	}
	live := stream[40:]
	want := []uint64{digest(scanKeys(t, ref))} // want[g]: the full scan at generation g
	for _, batch := range live {
		if err := ref.Add(batch...); err != nil {
			t.Fatal(err)
		}
		ref.Finalize()
		want = append(want, digest(scanKeys(t, ref)))
	}

	for _, n := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("scanners=%d", n), func(t *testing.T) {
			st, err := OpenBinary(path)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			st.setSealLimits(8, 2)
			reg := obs.NewRegistry()
			st.Instrument(reg)
			done := make(chan struct{})
			go func() {
				defer close(done)
				for _, batch := range live {
					if _, _, err := st.AppendBatch(slices.Clone(batch)); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			var scans atomic.Int64
			scanners(n, func(int) {
				for {
					select {
					case <-done:
						return
					default:
					}
					gen, seq, err := st.SnapshotCtx(context.Background(), nil)
					if err != nil {
						t.Error(err)
						return
					}
					h := fnv.New64a()
					for r, err := range seq {
						if err != nil {
							t.Error(err)
							return
						}
						h.Write([]byte(recKey(r)))
					}
					if h.Sum64() != want[gen] {
						t.Errorf("a snapshot labelled generation %d yields other rows than that generation's", gen)
						return
					}
					scans.Add(1)
				}
			})
			<-done
			if got := scanKeys(t, st); digest(got) != want[len(want)-1] {
				t.Fatal("after the stream the store scans differently from Add+Finalize")
			}
			seals, folds := reg.Counter("sacct_seals_total").Value(), reg.Counter("sacct_folds_total").Value()
			t.Logf("%d snapshots over %d batches, %d seals, %d folds", scans.Load(), len(live), seals, folds)
			if scans.Load() == 0 || seals == 0 || folds == 0 {
				t.Fatalf("%d snapshots, %d seals, %d folds: the race was not run", scans.Load(), seals, folds)
			}
		})
	}
}

// TestTailInstruments: the sacct_* gauges a scrape samples agree with
// Tail, and the seal and fold counters count.
func TestTailInstruments(t *testing.T) {
	st := NewStore()
	st.setSealLimits(16, 2)
	reg := obs.NewRegistry()
	st.Instrument(reg)
	for _, batch := range appendStream(3, 60) {
		if _, _, err := st.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	tail := st.Tail()
	segRows := 0
	for _, mo := range st.months {
		for _, sh := range mo.segs {
			segRows += sh.Rows()
		}
	}
	switch {
	case tail.MemRows+segRows != st.Len() || tail.Segments == 0 || tail.SegmentBytes <= 0:
		t.Fatalf("tail %+v with %d segment rows, store of %d", tail, segRows, st.Len())
	case snap["sacct_mem_rows"] != int64(tail.MemRows),
		snap["sacct_segments"] != int64(tail.Segments),
		snap["sacct_segment_bytes"] != tail.SegmentBytes:
		t.Fatalf("gauges %v, %v, %v; Tail says %+v", snap["sacct_mem_rows"], snap["sacct_segments"], snap["sacct_segment_bytes"], tail)
	case snap["sacct_seals_total"].(int64) == 0 || snap["sacct_folds_total"].(int64) == 0:
		t.Fatalf("%v seals, %v folds", snap["sacct_seals_total"], snap["sacct_folds_total"])
	}
}

// TestTruncatedDumpIsCorruptNotSIGBUS: a dump truncated in place under an
// open store — cold, or warm with every column verified — fails the next
// scan with colstore.ErrCorrupt and refuses the next batch into it,
// instead of killing the process with SIGBUS on a mapped read. A panic in
// a scan's consumer is still the consumer's.
func TestTruncatedDumpIsCorruptNotSIGBUS(t *testing.T) {
	st, _ := buildStore(t, 40)
	for _, warm := range []bool{false, true} {
		path := dumpBinary(t, st)
		bin, err := OpenBinary(path)
		if err != nil {
			t.Fatal(err)
		}
		if warm {
			if err := bin.Warm(); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.Truncate(path, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := bin.Select(Query{IncludeSteps: true}); !errors.Is(err, colstore.ErrCorrupt) {
			t.Fatalf("warm %v: scan of a truncated dump: %v, want ErrCorrupt", warm, err)
		}
		months := bin.Months()
		late := appendRec(9_000_001, 1, months[len(months)-1].Start().Add(time.Hour))
		if _, _, err := bin.AppendBatch([]slurm.Record{late}); !errors.Is(err, colstore.ErrCorrupt) {
			t.Fatalf("warm %v: append into a truncated month: %v, want ErrCorrupt", warm, err)
		}
		bin.Close()
	}

	func() {
		defer func() {
			if r := recover(); r != "consumer" {
				t.Fatalf("a consumer's panic came back as %v", r)
			}
		}()
		for range st.Scan(Query{}) {
			panic("consumer")
		}
	}()
}
