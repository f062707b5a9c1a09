package sacct

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"slurmsight/internal/cluster"
	"slurmsight/internal/sacct/colstore"
	"slurmsight/internal/sched"
	"slurmsight/internal/sched/schedtest"
	"slurmsight/internal/slurm"
	"slurmsight/internal/tracegen"
)

// TestIngestAllocatesPerMonth pins what Ingest allocates beyond what the
// record stream itself allocates building the rows: per month, one sealed
// file, the shard over it and a handful of headers; beside them, the
// dictionaries of the builders, which grow with the distinct values they
// meet. Nothing grows with the rows: no Record is kept, and every column's
// row stream is carved from one scratch slice sized by the month's row
// count.
func TestIngestAllocatesPerMonth(t *testing.T) {
	if raceEnabled {
		t.Skip("malloc counts are not stable under -race")
	}
	_, res := buildStore(t, 40)
	stream := testing.AllocsPerRun(3, func() {
		for range res.Records {
		}
	})
	var st *Store
	allocs := testing.AllocsPerRun(3, func() {
		st = NewStore()
		if err := st.Ingest(res); err != nil {
			t.Fatal(err)
		}
	}) - stream
	if want := res.Len() + res.StepRows(); st.Len() != want {
		t.Fatalf("Len = %d, want %d", st.Len(), want)
	}
	// Measured 240 for 34,485 rows in two months, at one goroutine or two.
	if limit := float64(256 + 24*len(st.Months())); allocs > limit {
		t.Errorf("Ingest of %d rows into %d months allocates %v times past the stream's %v, want <= %v",
			st.Len(), len(st.Months()), allocs, stream, limit)
	}
}

// TestIngestLandsEachJobBeforeItsSteps pins the shape Ingest leaves: each
// month one sorted segment and no in-memory rows, for one generation — the
// Finalize behind it moves nothing — and row for row the store that adding
// all jobs, then all steps, and sorting produces.
func TestIngestLandsEachJobBeforeItsSteps(t *testing.T) {
	_, res := buildStore(t, 40)
	jobs, steps := res.Collect()
	want := NewStore()
	if err := want.addRef(jobs...); err != nil {
		t.Fatal(err)
	}
	if err := want.addRef(steps...); err != nil {
		t.Fatal(err)
	}
	want.Finalize()

	got := NewStore()
	if err := got.Ingest(res); err != nil {
		t.Fatal(err)
	}
	gen := got.Generation()
	if gen != 1 {
		t.Errorf("Ingest moved the generation to %d, want 1", gen)
	}
	for m, mo := range got.months {
		if len(mo.mem) != 0 || mo.base != nil || len(mo.segs) != 1 || !mo.segs[0].Sorted() {
			t.Fatalf("shard %s after Ingest: %d in-memory rows, base %v, %d segments; want one sorted segment",
				m, len(mo.mem), mo.base != nil, len(mo.segs))
		}
	}
	got.Finalize()
	if got.Generation() != gen {
		t.Errorf("Finalize after Ingest moved the generation %d → %d", gen, got.Generation())
	}
	if !reflect.DeepEqual(selectAll(t, got), selectAll(t, want)) {
		t.Fatal("Ingest + Finalize scans differently from addRef(jobs) + addRef(steps) + Finalize")
	}
}

// sixMonths simulates a light Frontier workload over six months and more.
func sixMonths(t *testing.T) *sched.Result {
	t.Helper()
	p := tracegen.FrontierProfile()
	p.JobsPerDay, p.Users = 6, 12
	reqs, err := tracegen.Generate([]tracegen.Phase{{Profile: p, Start: base, End: base.AddDate(0, 6, 0)}}, 23)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := sched.New(sched.DefaultConfig(cluster.Frontier()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(reqs, sched.Options{EmitSteps: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestIngestBytesIndependentOfWidth: months encode on GOMAXPROCS
// goroutines, and at any width the store dumps the bytes of one built by
// addRef of the same rows.
func TestIngestBytesIndependentOfWidth(t *testing.T) {
	res := sixMonths(t)
	ref := NewStore()
	for r := range res.Records {
		if err := ref.addRef(*r); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(ref.Months()); n < 6 {
		t.Fatalf("the result spans %d months, want 6 or more", n)
	}
	var want bytes.Buffer
	if err := ref.DumpBinary(&want); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, width := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(width)
		st := NewStore()
		if err := st.Ingest(res); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := st.DumpBinary(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("GOMAXPROCS %d: Ingest dumps %d bytes that differ from addRef's %d", width, got.Len(), want.Len())
		}
	}
}

// TestIngestKeepsArrivalOrder: rows that tie a row already in the store
// scan after it, whether it was added or ingested before them — the order
// a store built by addRef of every row, in arrival order, scans in.
func TestIngestKeepsArrivalOrder(t *testing.T) {
	_, res := buildStore(t, 40)
	var rows []slurm.Record
	for r := range res.Records {
		rows = append(rows, *r)
	}
	// Copies of every tenth row: the same keys, told apart by their user.
	var dups []slurm.Record
	for i := 0; i < len(rows); i += 10 {
		d := rows[i].Clone()
		d.User = "dup"
		dups = append(dups, d)
	}
	for _, tc := range []struct {
		name  string
		first func(*Store) error
		want  [][]slurm.Record
	}{
		{"in-memory rows then Ingest", func(st *Store) error { return st.addRef(dups...) }, [][]slurm.Record{dups, rows}},
		{"Ingest twice", func(st *Store) error { return st.Ingest(res) }, [][]slurm.Record{rows, rows}},
	} {
		want := NewStore()
		for _, batch := range tc.want {
			if err := want.addRef(batch...); err != nil {
				t.Fatal(err)
			}
		}
		got := NewStore()
		if err := tc.first(got); err != nil {
			t.Fatal(err)
		}
		if err := got.Ingest(res); err != nil {
			t.Fatal(err)
		}
		if got.Generation() != 2 {
			t.Errorf("%s: generation %d, want 2", tc.name, got.Generation())
		}
		if !reflect.DeepEqual(selectAll(t, got), selectAll(t, want)) {
			t.Errorf("%s: the store scans differently from addRef of every row in arrival order", tc.name)
		}
	}
}

// TestIngestIntoCorruptShardLandsNothing: a result that reaches a base
// shard with a damaged column is refused whole — no month gains a segment,
// the row count and the generation stay where they were.
func TestIngestIntoCorruptShardLandsNothing(t *testing.T) {
	st, res := buildStore(t, 40)
	path := dumpBinary(t, st)
	corruptFirstColumn(t, path)
	bin, err := OpenBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	defer bin.Close()
	rows, gen := bin.Len(), bin.Generation()
	if err := bin.Ingest(res); !errors.Is(err, colstore.ErrCorrupt) {
		t.Fatalf("Ingest into a corrupt shard: %v, want ErrCorrupt", err)
	}
	if bin.Len() != rows || bin.Generation() != gen || bin.Tail().Segments != 0 {
		t.Errorf("refused Ingest left %d rows, generation %d, %d segments; want %d, %d, 0",
			bin.Len(), bin.Generation(), bin.Tail().Segments, rows, gen)
	}
}

// TestDumpOfCorruptStoreLeavesNoFile: the dump copies a base shard's
// regions only after verifying them, so a damaged column fails it with
// ErrCorrupt, and neither the file nor its temp file is left behind.
func TestDumpOfCorruptStoreLeavesNoFile(t *testing.T) {
	st, _ := buildStore(t, 40)
	path := dumpBinary(t, st)
	corruptFirstColumn(t, path)
	bin, err := OpenBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	defer bin.Close()
	out := filepath.Join(t.TempDir(), "again.colstore")
	if err := bin.DumpBinaryFile(out); !errors.Is(err, colstore.ErrCorrupt) {
		t.Fatalf("dumping a corrupt store: %v, want ErrCorrupt", err)
	}
	for _, p := range []string{out, out + ".tmp"} {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s is left behind (%v)", filepath.Base(p), err)
		}
	}
}

// TestTextDumpOfCorruptStoreKeepsOldFile: a text dump that fails
// mid-scan returns the error and leaves the file it would have replaced
// as it was, with no temp file beside it.
func TestTextDumpOfCorruptStoreKeepsOldFile(t *testing.T) {
	st, _ := buildStore(t, 40)
	path := dumpBinary(t, st)
	corruptFirstColumn(t, path)
	bin, err := OpenBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	defer bin.Close()
	out := filepath.Join(t.TempDir(), "trace.txt")
	old := []byte("JobID|User\n1|previous\n")
	if err := os.WriteFile(out, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := bin.DumpFile(out); !errors.Is(err, colstore.ErrCorrupt) {
		t.Fatalf("text dump of a corrupt store: %v, want ErrCorrupt", err)
	}
	if got, err := os.ReadFile(out); err != nil || !bytes.Equal(got, old) {
		t.Errorf("the failed dump changed the previous file: %q, %v", got, err)
	}
	if _, err := os.Stat(out + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("trace.txt.tmp is left behind (%v)", err)
	}
}

// TestIngestHoldsColumnsNotRecords pins what an ingested store costs: its
// rows are column segments, about a tenth of the 760-byte Record (and its
// TRES maps) each row was held as before.
func TestIngestHoldsColumnsNotRecords(t *testing.T) {
	res := schedtest.FrontierResult(t)
	before := liveHeap()
	st := NewStore()
	if err := st.Ingest(res); err != nil {
		t.Fatal(err)
	}
	held := int64(liveHeap()) - int64(before)
	runtime.KeepAlive(st)
	const perRow = 200
	t.Logf("%d rows: the store holds %d B (%.1f B/row)", st.Len(), held, float64(held)/float64(st.Len()))
	if held > perRow*int64(st.Len()) {
		t.Errorf("an ingested store of %d rows holds %d B, want at most %d B a row", st.Len(), held, perRow)
	}
}

// selectAll is every row of the store, in scan order, as owned copies.
func selectAll(t *testing.T, st *Store) []slurm.Record {
	t.Helper()
	rows, err := st.Select(Query{IncludeSteps: true})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// BenchmarkBuilder measures the row encoder alone: a simulated trace's
// rows, already materialised, encoded month by month through one reused
// colstore.Builder and sealed. Run it under GOMAXPROCS=1 to compare
// encoders.
func BenchmarkBuilder(b *testing.B) {
	_, res := buildStore(b, 60)
	var rows []slurm.Record
	for r := range res.Records {
		rows = append(rows, r.Clone())
	}
	var bld colstore.Builder
	b.ResetTimer()
	for b.Loop() {
		for lo := 0; lo < len(rows); {
			m := MonthOf(rows[lo].Submit)
			hi := lo + 1
			for hi < len(rows) && MonthOf(rows[hi].Submit) == m {
				hi++
			}
			bld.Reset(m.Year, m.Mon, hi-lo)
			for i := lo; i < hi; i++ {
				if err := bld.Add(&rows[i]); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := bld.Seal(); err != nil {
				b.Fatal(err)
			}
			lo = hi
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rows)), "ns/row")
}
