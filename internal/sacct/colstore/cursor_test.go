package colstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"slurmsight/internal/sched/schedtest"
	"slurmsight/internal/slurm"
)

// readRows reads a shard through a cursor into owned records.
func readRows(sh *Shard, cols ColSet) ([]slurm.Record, error) {
	cur := NewCursor(nil, cols)
	defer cur.Close()
	if err := cur.Open(context.Background(), sh); err != nil {
		return nil, err
	}
	var out []slurm.Record
	for {
		r, err := cur.Next()
		if r == nil {
			return out, err
		}
		out = append(out, r.Clone())
	}
}

// referenceDecode is the decoder the cursor replaced, kept as the tests'
// reference: one column at a time, every row of it, into a slice of
// records as long as the shard, with a dictionary read afresh and a map
// of its own for every TRES value. It knows nothing of checkpoints,
// lockstep, skipping or reuse.
func referenceDecode(sh *Shard, cols ColSet) ([]slurm.Record, error) {
	recs := make([]slurm.Record, sh.meta.rows)
	for set := cols; set != 0; set &= set - 1 {
		ci := bits.TrailingZeros64(uint64(set))
		def, cm := &columns[ci], sh.cols[ci].meta
		region := sh.f.data[cm.offset : cm.offset+cm.length]
		if checksum(region) != cm.crc {
			return nil, fmt.Errorf("%w: column %s checksum mismatch", ErrCorrupt, def.name)
		}
		cd := &colData{rows: region}
		if def.kind.hasDict() {
			if err := cd.readDict(def, slurm.NewInterner()); err != nil {
				return nil, err
			}
		}
		d := colDecoder{r: byteReader{b: cd.rows}, cd: cd}
		for i := range recs {
			d.tres = nil
			if err := def.dec(&d, &recs[i]); err != nil {
				return nil, fmt.Errorf("column %s row %d: %w", def.name, i, err)
			}
		}
		if d.r.len() != 0 {
			return nil, fmt.Errorf("%w: column %s has %d trailing bytes", ErrCorrupt, def.name, d.r.len())
		}
	}
	return recs, nil
}

// goldenFrontier is the golden Frontier run's rows (schedtest) in
// emission order, nil and empty TRES maps and flag lists included.
func goldenFrontier(t testing.TB) []slurm.Record {
	t.Helper()
	recs := schedtest.FrontierRecords(t)
	slices.SortStableFunc(recs, func(a, b slurm.Record) int { return recordCompare(&a, &b) })
	return recs
}

// openBytes parses a columnar file held in memory.
func openBytes(data []byte) (*File, error) {
	f := &File{data: data, in: slurm.NewInterner()}
	return f, f.parse()
}

// goldenShards writes the golden Frontier rows as two sorted shards (the
// split is arbitrary; a cursor is re-pointed across it) and opens them.
// The simulator gives every row both TRES maps, empty ones where it has
// nothing to say; a text-loaded row can have none, so some rows here lose
// theirs — a reused map must come back nil, empty and filled by turns.
func goldenShards(t testing.TB) (*File, [][]slurm.Record) {
	t.Helper()
	recs := goldenFrontier(t)
	for i := 0; i < len(recs); i += 5 {
		recs[i].TRESUsageInAve = nil
		if i%3 == 0 {
			recs[i].TRESReq = nil
		}
	}
	cut := len(recs) * 2 / 3
	parts := [][]slurm.Record{recs[:cut], recs[cut:]}
	var buf bytes.Buffer
	if err := Write(&buf, []ShardInput{
		{Year: 2024, Mon: time.January, Records: parts[0]},
		{Year: 2024, Mon: time.February, Records: parts[1]},
	}); err != nil {
		t.Fatal(err)
	}
	f, err := openBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for i, sh := range f.Shards() {
		if !sh.Sorted() || sh.Rows() != len(parts[i]) {
			t.Fatalf("shard %d: sorted %v, %d rows, want sorted and %d", i, sh.Sorted(), sh.Rows(), len(parts[i]))
		}
	}
	return f, parts
}

func randomColSet(rng *rand.Rand) ColSet {
	switch rng.Intn(8) {
	case 0:
		return AllColumns
	case 1, 2:
		return ColSet(1) << rng.Intn(numColumns)
	}
	return ColSet(rng.Uint64()&rng.Uint64()) & AllColumns
}

// TestCursorMatchesReference: for random projections, filters, seek rows
// and stop points, over both golden shards through one re-pointed cursor,
// the cursor yields field for field — nil against empty maps and slices
// included — the rows the reference decoder gives for that projection.
func TestCursorMatchesReference(t *testing.T) {
	f, _ := goldenShards(t)
	rng := rand.New(rand.NewSource(20))
	want := map[*Shard][]slurm.Record{}
	for _, sh := range f.Shards() {
		recs, err := referenceDecode(sh, AllColumns)
		if err != nil {
			t.Fatal(err)
		}
		want[sh] = recs
	}
	nilMaps, emptyMaps, fullMaps := 0, 0, 0
	for _, recs := range want {
		for i := range recs {
			switch m := recs[i].TRESUsageInAve; {
			case m == nil:
				nilMaps++
			case len(m) == 0:
				emptyMaps++
			default:
				fullMaps++
			}
		}
	}
	if nilMaps == 0 || emptyMaps == 0 || fullMaps == 0 {
		t.Fatalf("the rows hold %d nil, %d empty and %d filled TRES maps; the reuse check needs all three", nilMaps, emptyMaps, fullMaps)
	}

	col := func(name string) ColSet {
		c, err := ColumnsFor(name)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	byUser := func(want string) Filter {
		f, err := Equal("User", want)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	someUser := want[f.Shards()[0]][100].User
	filters := [][]Filter{
		nil,
		{JobRows()},
		{StateIs(slurm.StateFailed)},
		{byUser(someUser), JobRows()},
		{byUser("nobody-by-this-name"), JobRows()},
		{StateIs(slurm.StateCompleted), byUser(someUser), {Col: col("Submit"), Keep: func(r *slurm.Record) bool { return r.Submit.Unix()%3 != 0 }}},
		{JobRows(), {Col: col("ReqTRES"), Keep: func(r *slurm.Record) bool { return r.TRESReq != nil }}, {Col: col("Submit"), Keep: func(r *slurm.Record) bool { return r.Submit.Unix()%3 != 0 }}},
		{{Col: col("Submit"), Keep: func(r *slurm.Record) bool { return r.Submit.Unix()%7 == 0 }}},
		{{Col: col("NodeList"), Keep: func(r *slurm.Record) bool { return false }}},
	}
	if _, err := Equal("Flags", "x"); err == nil {
		t.Error("Equal on a column whose field is not its dictionary string: want an error")
	}
	if _, err := Equal("NNodes", "4"); err == nil {
		t.Error("Equal on a numeric column: want an error")
	}
	for trial := 0; trial < 60; trial++ {
		proj := randomColSet(rng)
		flt := filters[rng.Intn(len(filters))]
		read := proj
		for _, f := range flt {
			read |= f.Col
		}
		keep := func(r *slurm.Record) bool {
			for _, f := range flt {
				if !f.Keep(r) {
					return false
				}
			}
			return true
		}
		cur := NewCursor(flt, proj)
		for _, si := range rng.Perm(len(f.Shards())) {
			sh := f.Shards()[si]
			lo, hi := 0, sh.Rows()
			if err := cur.Open(context.Background(), sh); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(4) != 0 {
				lo = rng.Intn(sh.Rows() + 1)
				hi = lo + rng.Intn(sh.Rows()+1-lo)
				if rng.Intn(8) == 0 {
					lo, hi = lo/seekStride*seekStride, sh.Rows()
				}
				cur.Seek(lo, hi)
			}
			stop := -1
			if rng.Intn(3) == 0 {
				stop = rng.Intn(200)
			}
			exp, err := referenceDecode(sh, read)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for i := lo; i < hi; i++ {
				if !keep(&want[sh][i]) {
					continue
				}
				if n == stop {
					break
				}
				got, err := cur.Next()
				if err != nil || got == nil {
					t.Fatalf("trial %d shard %d rows [%d,%d): Next = %v, %v at row %d", trial, si, lo, hi, got, err, i)
				}
				if !reflect.DeepEqual(got, &exp[i]) {
					t.Fatalf("trial %d shard %d projection %v row %d:\n got %+v\nwant %+v", trial, si, read.Names(), i, *got, exp[i])
				}
				n++
			}
			if n != stop {
				if got, err := cur.Next(); got != nil || err != nil {
					t.Fatalf("trial %d shard %d rows [%d,%d): Next past the end = %v, %v", trial, si, lo, hi, got, err)
				}
			}
		}
		cur.Close()
	}
}

// TestCursorNextZeroAllocs is the cursor's allocation pin: a pass over
// every golden row under the full selection, TRES columns included,
// re-pointing from shard to shard, allocates nothing once the cursor's
// two TRES maps have grown to the widest row.
func TestCursorNextZeroAllocs(t *testing.T) {
	f, parts := goldenShards(t)
	cur := NewCursor(nil, AllColumns)
	rows := 0
	pass := func() {
		rows = 0
		for _, sh := range f.Shards() {
			if err := cur.Open(context.Background(), sh); err != nil {
				t.Fatal(err)
			}
			for {
				r, err := cur.Next()
				if err != nil {
					t.Fatal(err)
				}
				if r == nil {
					break
				}
				rows++
			}
		}
	}
	allocs := testing.AllocsPerRun(2, pass)
	if want := len(parts[0]) + len(parts[1]); allocs != 0 || rows != want {
		t.Errorf("a pass over %d of %d rows allocated %v times, want every row and 0", rows, want, allocs)
	}
	if stats := f.Stats(); stats.RowsDecoded < int64(rows) || stats.ColumnsRead < numColumns {
		t.Errorf("stats after the passes: %+v", stats)
	}
}

// TestSubmitWindow: for random windows the narrowed row range leaves out
// no row of the window, and leaves in less than a stride at either end.
func TestSubmitWindow(t *testing.T) {
	f, parts := goldenShards(t)
	rng := rand.New(rand.NewSource(3))
	for si, sh := range f.Shards() {
		recs := parts[si]
		first, last := recs[0].Submit, recs[len(recs)-1].Submit
		span := last.Sub(first)
		for trial := 0; trial < 500; trial++ {
			var start, end time.Time
			if rng.Intn(4) != 0 {
				start = first.Add(time.Duration(rng.Int63n(int64(span)*5/4)) - span/8)
			}
			if rng.Intn(4) != 0 {
				end = first.Add(time.Duration(rng.Int63n(int64(span)*5/4)) - span/8)
			}
			switch trial {
			case 0: // bounds no int64 of nanoseconds holds
				start, end = time.Date(1000, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC)
			case 1:
				start, end = time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC), time.Time{}
			case 2:
				start, end = time.Time{}, time.Date(1000, 1, 1, 0, 0, 0, 0, time.UTC)
			}
			lo, hi, err := sh.SubmitWindow(start, end)
			if err != nil {
				t.Fatal(err)
			}
			in := func(i int) bool {
				s := recs[i].Submit
				return (start.IsZero() || !s.Before(start)) && (end.IsZero() || s.Before(end))
			}
			wantLo := slices.IndexFunc(recs, func(r slurm.Record) bool { return start.IsZero() || !r.Submit.Before(start) })
			wantHi := len(recs)
			if !end.IsZero() {
				if wantHi = slices.IndexFunc(recs, func(r slurm.Record) bool { return !r.Submit.Before(end) }); wantHi < 0 {
					wantHi = len(recs)
				}
			}
			if wantLo < 0 {
				wantLo = len(recs)
			}
			for i := range recs {
				if in(i) && (i < lo || i >= hi) {
					t.Fatalf("shard %d window [%v, %v): row %d is inside it and outside rows [%d,%d)", si, start, end, i, lo, hi)
				}
			}
			if wantLo < wantHi && (wantLo-lo >= seekStride+1 || hi-wantHi > seekStride+1) {
				t.Fatalf("shard %d window [%v, %v): rows [%d,%d) for a window of rows [%d,%d)", si, start, end, lo, hi, wantLo, wantHi)
			}
		}
	}
}

// rewriteColumn returns a copy of a one-shard file with one column's
// region changed by mutate, and — when fixCRC is set — the footer's
// checksum for it (and the footer's own) brought back in line, so the
// damage is past the CRC and in front of the decoders.
func rewriteColumn(data []byte, ci int, fixCRC bool, mutate func(region []byte)) []byte {
	out := bytes.Clone(data)
	footOff := binary.LittleEndian.Uint64(out[len(out)-trailerLen:])
	metas, err := parseFooter(out[footOff:len(out)-trailerLen], footOff)
	if err != nil {
		panic(err)
	}
	cm := &metas[0].cols[ci]
	region := out[cm.offset : cm.offset+cm.length]
	mutate(region)
	if !fixCRC {
		return out
	}
	cm.crc = checksum(region)
	footer := appendFooter(nil, metas)
	out = append(out[:footOff], footer...)
	out = binary.LittleEndian.AppendUint64(out, footOff)
	out = binary.LittleEndian.AppendUint32(out, checksum(footer))
	return append(out, trailerMagic...)
}

// FuzzCursorCorruptRegion flips bytes in any one column region. With the
// footer's checksum left alone the damage is a CRC failure, which must
// surface from Open before a row is yielded, on every scan that projects
// the column and on none that does not. With the checksum recomputed the
// bytes reach the parsers: the scan must then either fail with ErrCorrupt
// or run to the shard's full length — never panic, never end short.
func FuzzCursorCorruptRegion(f *testing.F) {
	recs := genRecords(7, 3*seekStride+11, monthStart(2024, time.April))
	slices.SortStableFunc(recs, func(a, b slurm.Record) int { return recordCompare(&a, &b) })
	var buf bytes.Buffer
	if err := Write(&buf, []ShardInput{{Year: 2024, Mon: time.April, Records: recs}}); err != nil {
		f.Fatal(err)
	}
	data := buf.Bytes()
	for ci := 0; ci < numColumns; ci += 7 {
		f.Add(uint8(ci), uint32(ci*37), uint8(0x80), false)
		f.Add(uint8(ci), uint32(ci*11), uint8(0xFF), true)
	}
	for _, seed := range []struct {
		col string
		at  uint32
		xor uint8
	}{
		{"JobID", 0, 1},             // the first varint
		{"TRESUsageInAve", 0, 0x7F}, // the dictionary size
		{"ReqTRES", 40, 0x3F},       // an entry count
		{"Submit", 5, 0x80},         // a continuation bit mid-chain
		{"Flags", 1, 0x20},          // a dictionary string
		{"State", 9, 0x70},          // an ordinal past the last state
	} {
		ci, _ := lookupColumn(seed.col)
		f.Add(uint8(ci), seed.at, seed.xor, true)
	}
	f.Fuzz(func(t *testing.T, sel uint8, at uint32, xor uint8, fixCRC bool) {
		ci := int(sel) % numColumns
		if xor == 0 {
			return
		}
		empty := false
		bad := rewriteColumn(data, ci, fixCRC, func(region []byte) {
			if empty = len(region) == 0; !empty {
				region[int(at)%len(region)] ^= xor
			}
		})
		if empty {
			return
		}
		file, err := openBytes(bad)
		if err != nil {
			t.Fatalf("the footer is intact, Open = %v", err)
		}
		sh := file.Shards()[0]
		for _, cols := range []ColSet{AllColumns, ColSet(1) << ci} {
			for pass := 0; pass < 2; pass++ {
				got, err := readRows(sh, cols)
				switch {
				case err != nil && !errors.Is(err, ErrCorrupt):
					t.Fatalf("column %s: error %v is not ErrCorrupt", columns[ci].name, err)
				case err == nil && (!fixCRC || len(got) != len(recs)):
					t.Fatalf("column %s (crc fixed: %v): scan yielded %d of %d rows without an error", columns[ci].name, fixCRC, len(got), len(recs))
				case !fixCRC && len(got) != 0:
					t.Fatalf("column %s: %d rows yielded before the checksum failure", columns[ci].name, len(got))
				}
			}
		}
		if others := AllColumns &^ (ColSet(1) << ci); true {
			if got, err := readRows(sh, others); err != nil || len(got) != len(recs) {
				t.Fatalf("a scan that leaves column %s out: %d of %d rows, %v", columns[ci].name, len(got), len(recs), err)
			}
		}
	})
}
