package sacct

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"slurmsight/internal/sacct/colstore"
	"slurmsight/internal/slurm"
)

// textLoadFixture is a five-month text dump in file order. January and
// February are every third job of a simulated trace, with its steps, in
// scan order, more than sealRows rows each; March holds 100 rows, fewer
// than sealRows; April and May hold 4,400 each. One March row arrives
// late, among April's rows, while March is still in Load's open batch;
// one April row arrives among May's, after April has landed. With far,
// one April row starts in 1600, a time the columnar format cannot hold,
// which Load counts as malformed.
func textLoadFixture(t *testing.T, far bool) []byte {
	t.Helper()
	st, _ := buildStore(t, 40)
	all, err := st.Select(Query{IncludeSteps: true})
	if err != nil {
		t.Fatal(err)
	}
	var sim []slurm.Record
	for i := range all {
		if all[i].ID.Job%3 == 0 {
			sim = append(sim, all[i])
		}
	}
	shifted := func(src []slurm.Record, days int, want time.Month) []slurm.Record {
		out := make([]slurm.Record, len(src))
		for i := range src {
			r := src[i].Clone()
			for _, at := range []*time.Time{&r.Submit, &r.Eligible, &r.Start, &r.End} {
				if !at.IsZero() {
					*at = at.AddDate(0, 0, days)
				}
			}
			if r.Submit.Month() != want {
				t.Fatalf("fixture row %d submits %v, want a row of %v", i, r.Submit, want)
			}
			out[i] = r
		}
		return out
	}
	march, april, may := shifted(sim[:100], 60, time.March), shifted(sim[:4400], 90, time.April), shifted(sim[:4400], 120, time.May)
	if far {
		april[10].Start = time.Date(1600, time.June, 1, 0, 0, 0, 0, time.UTC)
	}
	lateMarch, lateApril := march[50], april[100]
	march, april = slices.Delete(march, 50, 51), slices.Delete(april, 100, 101)
	rows := slices.Concat(sim, march,
		april[:2000], []slurm.Record{lateMarch}, april[2000:],
		may[:2500], []slurm.Record{lateApril}, may[2500:])
	return dumpText(t, rows)
}

// dumpText renders rows, in the order given, as a text dump.
func dumpText(t *testing.T, rows []slurm.Record) []byte {
	t.Helper()
	enc, err := slurm.NewEncoder(slurm.SelectedNames())
	if err != nil {
		t.Fatal(err)
	}
	text := append(enc.AppendHeader(nil), '\n')
	for i := range rows {
		text = append(enc.AppendRecord(text, &rows[i]), '\n')
	}
	return text
}

// decodeAll reads a text dump into owned rows, in file order.
func decodeAll(t *testing.T, text []byte) []slurm.Record {
	t.Helper()
	br, err := slurm.NewByteRecordReader(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	var rows []slurm.Record
	for rec, err := range br.All() {
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, rec.Clone())
	}
	return rows
}

// sameTextAnswers fails the test unless got and want give the same text,
// every one of the 59 curated fields, to a full scan with and without
// steps, a draw of windows, and the user, account, partition and state
// filters.
func sameTextAnswers(t *testing.T, got, want *Store, what string) {
	t.Helper()
	rows, err := want.Select(Query{IncludeSteps: true})
	if err != nil {
		t.Fatal(err)
	}
	origin, end := rows[0].Submit, rows[len(rows)-1].Submit
	span := int64(end.Sub(origin))
	rng := rand.New(rand.NewSource(3))
	qs := []Query{
		{IncludeSteps: true}, {},
		{IncludeSteps: true, User: rows[7].User}, {User: rows[7].User},
		{IncludeSteps: true, State: "COMPLETED"}, {State: "FAILED"},
		{IncludeSteps: true, Account: rows[3].Account, Partition: rows[3].Partition},
	}
	for i := range 6 {
		q := Query{IncludeSteps: i%2 == 0, Start: origin.Add(time.Duration(rng.Int63n(span)))}
		q.End = q.Start.Add(time.Duration(1 + rng.Int63n(span/4)))
		if i%3 == 0 {
			q.User = rows[rng.Intn(len(rows))].User
		}
		qs = append(qs, q)
	}
	for _, q := range qs {
		if g, w := queryText(t, got, q), queryText(t, want, q); g != w {
			t.Fatalf("%s: query %+v answers %d bytes, the reference %d", what, q, len(g), len(w))
		}
	}
}

// TestTextLoadMatchesReference pins Load against the in-memory reference:
// a dump with steps, late rows, a month under sealRows and, in one
// variant, a row the columnar format cannot hold loads to a store that
// answers every query as addRef of the same rows in file order — less
// the one Load counts malformed — does, and as OpenBinary over its
// DumpBinary. Load lands its rows through AppendBatch, a batch per
// hand-off, and the seal rule leaves each month one segment — but for
// April, whose late row arrives after April sealed and is sealed as a
// segment of its own.
func TestTextLoadMatchesReference(t *testing.T) {
	for _, far := range []bool{false, true} {
		what := fmt.Sprintf("far %v", far)
		text := textLoadFixture(t, far)
		got, malformed, err := Load(bytes.NewReader(text))
		want := 0
		if far {
			want = 1
		}
		if err != nil || malformed != want {
			t.Fatalf("%s: Load: %d malformed, %v; want %d malformed", what, malformed, err, want)
		}
		held := slices.DeleteFunc(decodeAll(t, text), func(r slurm.Record) bool { return colstore.Holds(&r) != nil })
		ref := NewStore()
		if err := ref.addRef(held...); err != nil {
			t.Fatal(err)
		}
		if got.Len() != ref.Len() {
			t.Fatalf("%s: Load kept %d rows, want %d", what, got.Len(), ref.Len())
		}
		sameTextAnswers(t, got, ref, what+": Load against addRef")

		// Jan, Feb, March with April, then May with April's late row.
		if g := got.Generation(); g != 4 {
			t.Errorf("%s: generation %d, want 4, one per batch landed", what, g)
		}
		april := Month{2024, time.April}
		for m, mo := range got.months {
			segs := 1
			if m == april {
				segs = 2
			}
			if len(mo.segs) != segs || len(mo.mem) > 0 {
				t.Errorf("%s: %s holds %d segments and %d Records, want %d segments and no Records",
					what, m, len(mo.segs), len(mo.mem), segs)
			}
		}
		bin, err := OpenBinary(dumpBinary(t, got))
		if err != nil {
			t.Fatal(err)
		}
		sameTextAnswers(t, bin, got, what+": OpenBinary of the DumpBinary against Load")
		bin.Close()
	}
}

// TestTextLoadHeapPerRow pins what a text-loaded store holds: the
// two-month fixture, dumped as text and loaded back, seals each month into
// a segment and keeps at most 279 B of heap a row. When Load kept every
// row as a Record it held 838 B a row of this fixture; the pin is a third
// of that.
func TestTextLoadHeapPerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector pads allocations")
	}
	const perRow = 279
	st, _ := buildStore(t, 40)
	path := filepath.Join(t.TempDir(), "dump.txt")
	if err := st.DumpFile(path); err != nil {
		t.Fatal(err)
	}
	rows := st.Len()

	before := liveHeap()
	loaded, _, err := loadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	held := int64(liveHeap()) - int64(before)
	runtime.KeepAlive(loaded)

	tail := loaded.Tail()
	t.Logf("%d rows: %d B held (%.1f B/row); %d Records, %d segments of %d B",
		rows, held, float64(held)/float64(rows), tail.MemRows, tail.Segments, tail.SegmentBytes)
	if loaded.Len() != rows {
		t.Fatalf("loaded %d of %d rows", loaded.Len(), rows)
	}
	if held > perRow*int64(rows) {
		t.Errorf("a text-loaded store of %d rows holds %d B, want at most %d B a row", rows, held, perRow)
	}
}
