package slurm

import (
	"errors"
	"io"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"
)

const streamSample = `JobID|User|State|Elapsed|NNodes
100001|alice|COMPLETED|01:30:00|128
100002|bob|FAILED|00:10:00|9.4K

100003|carol|CANCELLED|00:00:00|1
`

const streamSampleJunk = streamSample +
	"100004|dave|COMPLE\n" + // missing columns
	"100005|eve|COMPLETED|xx:yy:zz|4\n" + // bad duration
	"100006|frank|COMPLETED|00:05:00|2\n"

func TestRecordReaderClean(t *testing.T) {
	rr, err := NewByteRecordReader(strings.NewReader(streamSample))
	if err != nil {
		t.Fatal(err)
	}
	if got := rr.Fields(); len(got) != 5 || got[0] != "JobID" || got[4] != "NNodes" {
		t.Errorf("Fields = %v", got)
	}
	var users []string
	var nodes []int64
	for {
		rec, err := rr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		users = append(users, rec.User)
		nodes = append(nodes, rec.NNodes)
	}
	if strings.Join(users, ",") != "alice,bob,carol" {
		t.Errorf("users = %v", users)
	}
	if nodes[1] != 9400 {
		t.Errorf("K-count not expanded: %v", nodes)
	}
}

func TestRecordReaderScratchReuse(t *testing.T) {
	rr, err := NewByteRecordReader(strings.NewReader(streamSample))
	if err != nil {
		t.Fatal(err)
	}
	first, err := rr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if first.User != "alice" || first.Elapsed != 90*time.Minute {
		t.Fatalf("first = %+v", first)
	}
	row := rr.Row()
	if len(row) != 5 || string(row[1]) != "alice" {
		t.Fatalf("Row = %q", row)
	}
	second, err := rr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Error("scratch record not reused across Next calls")
	}
	if first.User != "bob" {
		t.Errorf("scratch not overwritten: %q", first.User)
	}
	if string(rr.Row()[1]) != "bob" {
		t.Errorf("Row scratch not overwritten: %q", rr.Row())
	}
}

// TestRecordReaderRefillsTRESMapsUntilCloned pins the reader's side of
// the one scan contract it shares with colstore.Cursor: a row's TRES
// maps are the reader's, cleared and refilled by the next row, a blank
// cell is nil, and Record.Clone is how a row is kept — its maps and
// flags stay as they were whatever the reader goes on to decode.
func TestRecordReaderRefillsTRESMapsUntilCloned(t *testing.T) {
	const text = "JobID|User|Flags|Backfill|ReqTRES|TRESUsageInAve\n" +
		"1|alice|SchedMain|1|cpu=8,mem=4G|cpu=7\n" +
		"2|bob|SchedMain|0|gres/gpu=2,node=1|\n" +
		"3|carol|SchedMain|1|cpu=16|cpu=9\n"
	rr, err := NewByteRecordReader(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	next := func() *Record {
		t.Helper()
		rec, err := rr.Next()
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	first := next()
	kept := first.Clone()
	req, usage := first.TRESReq, first.TRESUsageInAve

	second := next()
	if !maps.Equal(req, TRES{"gres/gpu": 2, "node": 1}) {
		t.Errorf("row 1's ReqTRES map after row 2 = %v, want row 2's entries: the reader refills one map", req)
	}
	if second.TRESUsageInAve != nil {
		t.Errorf("blank TRESUsageInAve cell = %v, want nil", second.TRESUsageInAve)
	}
	third := next()
	if !maps.Equal(usage, TRES{"cpu": 9}) || !maps.Equal(third.TRESUsageInAve, usage) {
		t.Errorf("TRESUsageInAve after row 3: reader map %v, row %v, want both cpu=9", usage, third.TRESUsageInAve)
	}

	if !maps.Equal(kept.TRESReq, TRES{"cpu": 8, "mem": 4 << 30}) || !maps.Equal(kept.TRESUsageInAve, TRES{"cpu": 7}) {
		t.Errorf("clone of row 1 holds ReqTRES %v, TRESUsageInAve %v after the reader moved on", kept.TRESReq, kept.TRESUsageInAve)
	}
	if !slices.Equal(kept.Flags, []string{FlagMain, FlagBackfill}) || kept.User != "alice" {
		t.Errorf("clone of row 1: user %q, flags %v", kept.User, kept.Flags)
	}
	kept.TRESReq["cpu"] = 99
	if third.TRESReq["cpu"] != 16 {
		t.Error("a clone's ReqTRES map is the reader's")
	}
	kept.Flags = append(kept.Flags, "Mine")
	if !slices.Equal(third.Flags, []string{FlagMain, FlagBackfill}) {
		t.Errorf("an append to a clone's flags reached row 3's: %v", third.Flags)
	}
}

func TestRecordReaderRowErrors(t *testing.T) {
	rr, err := NewByteRecordReader(strings.NewReader(streamSampleJunk))
	if err != nil {
		t.Fatal(err)
	}
	var kept, malformed int
	var lines []int
	for {
		rec, err := rr.Next()
		if err == io.EOF {
			break
		}
		var rowErr *RowError
		if errors.As(err, &rowErr) {
			malformed++
			lines = append(lines, rowErr.Line)
			if rowErr.Error() == "" || rowErr.Unwrap() == nil {
				t.Error("RowError lacks detail")
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		_ = rec
		kept++
	}
	if kept != 4 || malformed != 2 {
		t.Errorf("kept=%d malformed=%d, want 4/2", kept, malformed)
	}
	// streamSample has a blank line before carol, so dave's truncated row
	// is input line 6 and eve's bad duration line 7.
	if len(lines) != 2 || lines[0] != 6 || lines[1] != 7 {
		t.Errorf("RowError lines = %v", lines)
	}
}

func TestRecordReaderHeaderErrors(t *testing.T) {
	if _, err := NewByteRecordReader(strings.NewReader("")); err == nil {
		t.Error("empty input: want error")
	}
	if _, err := NewByteRecordReader(strings.NewReader("JobID|Mystery\n")); err == nil {
		t.Error("unknown header field: want error")
	}
}

func TestRecordSeqAllAndCollect(t *testing.T) {
	rr, err := NewByteRecordReader(strings.NewReader(streamSampleJunk))
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	malformed := 0
	for rec, err := range rr.All() {
		var rowErr *RowError
		switch {
		case err == nil:
			recs = append(recs, rec.Clone())
		case errors.As(err, &rowErr):
			malformed++
		default:
			t.Fatal(err)
		}
	}
	if len(recs) != 4 || malformed != 2 {
		t.Fatalf("collect: %d records, %d malformed", len(recs), malformed)
	}
	// Collected records must be copies, not aliases of the scratch.
	if recs[0].User == recs[1].User {
		t.Errorf("records alias each other: %+v", recs[:2])
	}
	if recs[3].User != "frank" {
		t.Errorf("last record = %+v", recs[3])
	}
}

func TestRecordSeqEarlyBreak(t *testing.T) {
	rr, err := NewByteRecordReader(strings.NewReader(streamSample))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range rr.All() {
		if e != nil {
			t.Fatal(e)
		}
		n++
		if n == 2 {
			break
		}
	}
	if n != 2 {
		t.Errorf("broke after %d records", n)
	}
}

// TestRecordReaderLongRows pins the one row cap: a row longer than the
// read buffer decodes, a row past MaxLineLen ends the stream with an
// error naming its line — 1-based in the input when the reader saw the
// header, chunk-relative for an interior chunk.
func TestRecordReaderLongRows(t *testing.T) {
	legal := strings.Repeat("c", 2<<20)
	input := "JobID|Comment\n1|" + legal + "\n2|" + strings.Repeat("x", MaxLineLen) + "\n3|late\n"
	rr, err := NewByteRecordReader(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := rr.Next()
	if err != nil || rec.Comment != legal {
		t.Fatalf("2 MiB row: %d comment bytes, err %v", len(rec.Comment), err)
	}
	_, err = rr.Next()
	var rowErr *RowError
	if err == nil || errors.As(err, &rowErr) ||
		err.Error() != "slurm: line 3: row exceeds 8388608 bytes" {
		t.Errorf("row past the cap: err = %v, want a terminal error naming line 3", err)
	}

	path := writeTrace(t, input)
	cs, err := NewChunkScanner(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	if cs.NumChunks() != 3 {
		t.Fatalf("%d chunks, want one per row", cs.NumChunks())
	}
	br, closer, err := cs.Open(1)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	if _, err := br.Next(); err == nil || err.Error() != "slurm: line 1: row exceeds 8388608 bytes" {
		t.Errorf("interior chunk: err = %v, want the chunk-relative line 1", err)
	}
}
