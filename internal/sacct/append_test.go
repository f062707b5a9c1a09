package sacct

import (
	"context"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"time"

	"slurmsight/internal/slurm"
)

// appendRec is one job-level record for the batch-append tests; the
// user carries the arrival number, so two records with the same
// (submit, id) key stay distinguishable.
func appendRec(id, arrival int, submit time.Time) slurm.Record {
	return slurm.Record{
		ID:     slurm.NewJobID(int64(id)),
		User:   "u" + strconv.Itoa(arrival),
		Submit: submit,
		Start:  submit.Add(time.Minute),
		End:    submit.Add(time.Hour),
		State:  slurm.StateCompleted,
		NNodes: 1,
	}
}

func recKey(r *slurm.Record) string {
	return r.Submit.Format(time.RFC3339) + " " + r.ID.String() + " " + r.User
}

// scanKeys renders a full scan as comparable strings.
func scanKeys(t *testing.T, st *Store) []string {
	t.Helper()
	var out []string
	for r, err := range st.Scan(Query{IncludeSteps: true}) {
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, recKey(r))
	}
	return out
}

// appendStream draws batches that land everywhere a live batch can: at
// the tail, late into an old month, across a month boundary, on top of a
// key the store already holds, and unsorted inside the batch.
func appendStream(seed int64, batches int) [][]slurm.Record {
	rng := rand.New(rand.NewSource(seed))
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	cursor := start
	arrival := 0
	var seen []slurm.Record
	out := make([][]slurm.Record, batches)
	for b := range out {
		n := 1 + rng.Intn(12)
		kind := rng.Intn(5)
		for i := 0; i < n; i++ {
			arrival++
			var r slurm.Record
			switch {
			case kind == 0 && len(seen) > 0: // late: somewhere in the past
				r = appendRec(100000+arrival, arrival, start.Add(time.Duration(rng.Int63n(int64(cursor.Sub(start))+1))))
			case kind == 1 && len(seen) > 0: // duplicate (submit, id) of a stored record
				d := seen[rng.Intn(len(seen))]
				r = appendRec(0, arrival, d.Submit)
				r.ID = d.ID
			case kind == 2: // strides that cross month boundaries inside one batch
				cursor = cursor.Add(time.Duration(6+rng.Intn(12)) * 24 * time.Hour)
				r = appendRec(100000+arrival, arrival, cursor)
			default: // tail
				cursor = cursor.Add(time.Duration(rng.Intn(90)) * time.Minute)
				r = appendRec(100000+arrival, arrival, cursor)
			}
			out[b] = append(out[b], r)
		}
		if rng.Intn(2) == 0 {
			rng.Shuffle(len(out[b]), func(i, j int) { out[b][i], out[b][j] = out[b][j], out[b][i] })
		}
		seen = append(seen, out[b]...)
	}
	return out
}

// TestAppendBatchMatchesAddFinalize pins the batch append against the
// pair it replaces on the live path: the same batches through
// AppendBatch and through Add+Finalize leave the same scan, AppendBatch
// moves the generation exactly once a call, and its tail verdict is
// true exactly when the new scan is the old scan plus the batch.
func TestAppendBatchMatchesAddFinalize(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		got, want := NewStore(), NewStore()
		tails := 0
		for b, batch := range appendStream(seed, 60) {
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
			if !slices.IsSortedFunc(mine, recordCmp) {
				t.Fatalf("seed %d batch %d: batch was not left in scan order", seed, b)
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
		}
		if tails == 0 || tails == 60 {
			t.Fatalf("seed %d: %d of 60 batches were tail appends; the stream must take both paths", seed, tails)
		}
	}
}

// TestAppendBatchRefusedLandsNothing: a batch with one row bound for a
// corrupt lazy shard is refused whole — the rows for healthy months do
// not land either, and the generation does not move.
func TestAppendBatchRefusedLandsNothing(t *testing.T) {
	st, _ := buildStore(t, 40)
	path := dumpBinary(t, st)
	corruptFirstColumn(t, path)
	bin, err := OpenBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	defer bin.Close()
	months := bin.Months()
	wantLen, wantGen := bin.Len(), bin.Generation()

	fresh := time.Date(2031, 1, 1, 0, 0, 0, 0, time.UTC)
	batch := []slurm.Record{
		appendRec(9_000_001, 1, fresh),                            // a new month
		appendRec(9_000_002, 2, months[1].Start().Add(time.Hour)), // a healthy stored month
		appendRec(9_000_003, 3, months[0].Start().Add(time.Hour)), // the corrupt month
	}
	gen, _, err := bin.AppendBatch(batch)
	if err == nil {
		t.Fatal("a batch touching the corrupt shard was accepted")
	}
	if gen != wantGen || bin.Generation() != wantGen {
		t.Fatalf("generation %d (returned %d) after a refused batch, want %d", bin.Generation(), gen, wantGen)
	}
	if got := bin.Len(); got != wantLen {
		t.Fatalf("Len = %d after a refused batch, want %d", got, wantLen)
	}
	rows, err := bin.Select(Query{Start: months[1].Start(), IncludeSteps: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if id := rows[i].ID.String(); id == "9000001" || id == "9000002" {
			t.Fatalf("row %s of the refused batch landed", id)
		}
	}
}

// TestAppendBatchLateKeepsOpenScan: a scan that captured a shard before
// a late append keeps reading the pre-append shard, and a snapshot taken
// after it is labelled with the generation whose rows it yields.
func TestAppendBatchLateKeepsOpenScan(t *testing.T) {
	st := NewStore()
	day := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	var recs []slurm.Record
	for i := 0; i < 50; i++ {
		recs = append(recs, appendRec(1000+i, i, day.Add(time.Duration(i)*time.Hour)))
	}
	if _, _, err := st.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	want := scanKeys(t, st)

	var got []string
	for r, err := range st.Scan(Query{IncludeSteps: true}) {
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 10 {
			// Mid-scan: a late batch that sorts into the part not yet read,
			// then a tail batch that appends past the captured length.
			if _, tail, err := st.AppendBatch([]slurm.Record{appendRec(5000, 0, day.Add(30*time.Hour+time.Minute))}); err != nil || tail {
				t.Fatalf("late append: tail %v err %v", tail, err)
			}
			if _, tail, err := st.AppendBatch([]slurm.Record{appendRec(5001, 0, day.Add(100*time.Hour))}); err != nil || !tail {
				t.Fatalf("tail append: tail %v err %v", tail, err)
			}
		}
		got = append(got, recKey(r))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("a scan open across a late append changed under its reader: got %d rows, want the %d it started over", len(got), len(want))
	}

	gen, seq, err := st.SnapshotCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.AppendBatch([]slurm.Record{appendRec(5002, 0, day.Add(200*time.Hour))}); err != nil {
		t.Fatal(err)
	}
	n := 0
	for range seq {
		n++
	}
	if gen != 3 || n != 52 {
		t.Fatalf("snapshot labelled generation %d yields %d rows, want generation 3 with its 52 rows", gen, n)
	}
}

// TestSealedMonthsScanLikeATextStore pins the month a scan merges: a store
// opened from a dump keeps those rows sealed and takes every later batch —
// tail, late into a sealed month, across a month boundary, on top of a
// stored key, shuffled, and Added without order until a Finalize — into
// its in-memory part, yet reads row for row, duplicates in arrival order
// included, like a text-loaded store given the same rows through Add and
// Finalize: the full scan, and a draw of windows and filters after every
// batch. AppendBatch's tail verdict is held to the same definition as on a
// store with nothing sealed.
func TestSealedMonthsScanLikeATextStore(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		stream := appendStream(seed, 70)
		ref := NewStore()
		for _, batch := range stream[:30] {
			if err := ref.Add(batch...); err != nil {
				t.Fatal(err)
			}
		}
		ref.Finalize()
		got, err := OpenBinary(dumpBinary(t, ref))
		if err != nil {
			t.Fatal(err)
		}
		defer got.Close()
		sealed, inMem := 0, 0
		for _, mo := range got.months {
			if mo.base != nil {
				sealed++
			}
			if len(mo.mem) > 0 {
				inMem++
			}
		}
		if sealed < 2 || inMem != 0 {
			t.Fatalf("seed %d: opened with %d sealed months and %d in memory, want several and none", seed, sealed, inMem)
		}

		rng := rand.New(rand.NewSource(seed))
		tails, merged := 0, false
		for b, batch := range stream[30:] {
			before := scanKeys(t, got)
			mine := slices.Clone(batch)
			tail, viaAdd := false, b%5 == 4
			if viaAdd {
				// The bulk pair: unsorted beside the sealed rows until Finalize.
				if err := got.Add(mine...); err != nil {
					t.Fatal(err)
				}
				if unsorted := scanKeys(t, got); len(unsorted) != len(before)+len(mine) {
					t.Fatalf("seed %d batch %d: %d rows visible before Finalize, want %d", seed, b, len(unsorted), len(before)+len(mine))
				}
				got.Finalize()
			} else if _, tail, err = got.AppendBatch(mine); err != nil {
				t.Fatal(err)
			}
			if err := ref.Add(batch...); err != nil {
				t.Fatal(err)
			}
			ref.Finalize()

			after := scanKeys(t, got)
			if want := scanKeys(t, ref); !slices.Equal(after, want) {
				t.Fatalf("seed %d batch %d: full scan differs from the text store's (%d rows against %d)", seed, b, len(after), len(want))
			}
			if !viaAdd {
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
			}
			for _, mo := range got.months {
				merged = merged || mo.base != nil && mo.base.Rows() > 0 && len(mo.mem) > 0
			}
			months := ref.Months()
			origin := months[0].Start()
			span := int64(months[len(months)-1].Next().Start().Sub(origin))
			for i := 0; i < 6; i++ {
				var q Query
				if rng.Intn(4) != 0 {
					q.Start = origin.Add(time.Duration(rng.Int63n(span)))
				}
				if rng.Intn(4) != 0 {
					q.End = origin.Add(time.Duration(rng.Int63n(span)))
					if !q.Start.IsZero() {
						q.End = q.Start.Add(time.Duration(1 + rng.Int63n(span/3)))
					}
				}
				if i%2 == 0 {
					q.Fields = []string{"User", "State", "NNodes"}
				}
				if i == 5 {
					q.User = mine[0].User
				}
				if queryText(t, got, q) != queryText(t, ref, q) {
					t.Fatalf("seed %d batch %d: query %+v differs from the text store's answer", seed, b, q)
				}
			}
		}
		if tails == 0 || !merged {
			t.Fatalf("seed %d: %d tail appends, a month with both parts: %v; the stream must reach both", seed, tails, merged)
		}
	}
}
