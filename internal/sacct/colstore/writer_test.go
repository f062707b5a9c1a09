package colstore

import (
	"bytes"
	"io"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"slurmsight/internal/slurm"
)

// TestWriteRefusesTimesTheFormatCannotHold: a row ending in 2400 went
// through Write and read back as a time in 1815, both with a nil error.
// Write and Seal refuse it alike, and nothing reaches the writer. (That
// a refused dump leaves no file is sacct's writeFile's to hold:
// TestBinaryDumpRefusesTimesTheFormatCannotHold.)
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

// TestHoldsIsTheWritersCheck: Holds passes a row whose times are zero
// ("Unknown") or within 1678 to 2262, without allocating, and refuses one
// with any of its four times in 1600 or 2400, with the text the writer's
// error carries.
func TestHoldsIsTheWritersCheck(t *testing.T) {
	r := genRecords(5, 1, monthStart(2024, time.May))[0]
	r.Eligible, r.End = time.Time{}, time.Time{}
	if n := testing.AllocsPerRun(100, func() {
		if err := Holds(&r); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Holds allocates %v times for a row that fits, want 0", n)
	}
	for _, at := range []time.Time{time.Date(1600, 3, 10, 0, 0, 0, 0, time.UTC), time.Date(2400, 1, 1, 0, 0, 0, 0, time.UTC)} {
		for i := range 4 {
			far := r
			field := [...]*time.Time{&far.Submit, &far.Eligible, &far.Start, &far.End}[i]
			*field = at
			if err := Holds(&far); err == nil || !strings.Contains(err.Error(), "is outside what the format holds") {
				t.Errorf("time %d set to %v: Holds returned %v", i, at, err)
			}
		}
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

// TestRowEncoderMatchesSchema guards encodeRow against drift from the
// decode table: for each column, a record that differs from a base record
// only in what that column's decoder sets encodes to bytes that differ in
// that column's region alone, and reads back as itself.
func TestRowEncoderMatchesSchema(t *testing.T) {
	base := genRecords(9, 1, monthStart(2024, time.June))[0]
	if base.Start.IsZero() || base.End.IsZero() {
		t.Fatal("the base record has a zero time; pick another seed")
	}
	base.Flags = slices.Clip(base.Flags)
	// other differs from base in every field, so in every column.
	other := base
	other.TRESReq, other.TRESUsageInAve = maps.Clone(base.TRESReq), maps.Clone(base.TRESUsageInAve)
	changeEveryField(reflect.ValueOf(&other).Elem())

	regions := func(r *slurm.Record) [][]byte {
		var b Builder
		b.Reset(2024, time.June, 1)
		if err := b.Add(r); err != nil {
			t.Fatal(err)
		}
		out := make([][]byte, len(columns))
		for ci := range columns {
			out[ci] = b.encs[ci].appendRegion(columns[ci].kind, nil)
		}
		return out
	}
	baseRegions, otherRegions := regions(&base), regions(&other)
	donor, err := Seal(2024, time.June, []slurm.Record{other})
	if err != nil {
		t.Fatal(err)
	}
	for ci := range columns {
		if bytes.Equal(baseRegions[ci], otherRegions[ci]) {
			t.Fatalf("column %s encodes the two records alike", columns[ci].name)
		}
		rec := base
		var d colDecoder
		d.point(&donor.cols[ci])
		if err := columns[ci].dec(&d, &rec); err != nil {
			t.Fatal(err)
		}
		got := regions(&rec)
		for cj := range columns {
			if differ := !bytes.Equal(got[cj], baseRegions[cj]); differ != (cj == ci) {
				t.Errorf("changing column %s: region %s differs from the base record's: %v", columns[ci].name, columns[cj].name, differ)
			}
		}
		sh, err := Seal(2024, time.June, []slurm.Record{rec})
		if err != nil {
			t.Fatal(err)
		}
		back, err := readRows(sh, AllColumns)
		if err != nil || len(back) != 1 || !reflect.DeepEqual(back[0], rec) {
			t.Errorf("changing column %s: the record reads back differently (%d rows, %v)", columns[ci].name, len(back), err)
		}
	}
}

// changeEveryField changes every value v holds to another the format can
// hold: numbers up by one, strings and flag lists longer, booleans
// flipped, times a second later, maps with one more key.
func changeEveryField(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		if t, ok := v.Interface().(time.Time); ok {
			v.Set(reflect.ValueOf(t.Add(time.Second)))
			return
		}
		for i := range v.NumField() {
			changeEveryField(v.Field(i))
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Map:
		if v.IsNil() {
			v.Set(reflect.MakeMap(v.Type()))
		}
		v.SetMapIndex(reflect.ValueOf("zz"), reflect.ValueOf(int64(7)))
	case reflect.Slice:
		v.Set(reflect.Append(v, reflect.ValueOf("X")))
	default:
		panic("changeEveryField: " + v.Type().String())
	}
}

// TestWriteCopiesSealedShards: a shard handed to Write already sealed
// writes the bytes its rows would, sorted or not, by copying its regions
// into their new places beside shards given as rows.
func TestWriteCopiesSealedShards(t *testing.T) {
	unsorted := genRecords(10, 300, monthStart(2024, time.March))
	sorted := slices.Clone(unsorted)
	slices.SortStableFunc(sorted, func(a, b slurm.Record) int { return recordCompare(&a, &b) })
	april := genRecords(11, 200, monthStart(2024, time.April))
	slices.SortStableFunc(april, func(a, b slurm.Record) int { return recordCompare(&a, &b) })
	asRows := []ShardInput{
		{Year: 2024, Mon: time.March, Records: unsorted},
		{Year: 2024, Mon: time.April, Records: april},
		{Year: 2024, Mon: time.May, Records: sorted},
	}
	var want bytes.Buffer
	if err := Write(&want, asRows); err != nil {
		t.Fatal(err)
	}
	f, err := OpenBytes(want.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if f.Shards()[0].Sorted() || !f.Shards()[2].Sorted() {
		t.Fatal("the fixture's first shard should be unsorted and its last sorted")
	}
	sealed, err := Seal(2024, time.May, sorted)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := Write(&got, []ShardInput{{Shard: f.Shards()[0]}, asRows[1], {Shard: sealed}}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("sealed shards write %d bytes that differ from their rows' %d", got.Len(), want.Len())
	}
}
