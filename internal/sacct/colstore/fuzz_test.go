package colstore

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"slurmsight/internal/slurm"
)

// FuzzColumnDecode feeds arbitrary bytes through every column decoder:
// whatever the input, decoding must return (possibly an error), never
// panic, and a region that decodes cleanly must consume predictably.
func FuzzColumnDecode(f *testing.F) {
	// Seed with one real region per column so the fuzzer starts from
	// structurally valid varint streams.
	recs := genRecords(99, 16, monthStart(2024, time.April))
	var b Builder
	b.Reset(2024, time.April, len(recs))
	for ri := range recs {
		if err := b.Add(&recs[ri]); err != nil {
			f.Fatal(err)
		}
	}
	for ci := range columns {
		f.Add(uint8(ci), b.encs[ci].appendRegion(columns[ci].kind, nil))
	}
	f.Add(uint8(0), []byte{})
	f.Add(uint8(3), []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})

	in := slurm.NewInterner()
	f.Fuzz(func(t *testing.T, sel uint8, data []byte) {
		def := &columns[int(sel)%len(columns)]
		corrupt := func(what string, err error) {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("non-corrupt %s error: %v", what, err)
			}
		}
		cd := &colData{rows: data}
		if def.kind.hasDict() {
			if err := cd.readDict(def, in); err != nil {
				corrupt("dictionary", err)
				return
			}
		}
		// Row by row, decoding and skipping must agree on where a row ends
		// for as long as decoding succeeds.
		dec := colDecoder{r: byteReader{b: cd.rows}, cd: cd}
		skip := dec
		var r slurm.Record
		rows, clean := 0, true
		for ; rows < 1<<16 && dec.r.len() > 0; rows++ {
			if err := def.dec(&dec, &r); err != nil {
				corrupt("row", err)
				clean = false
				break
			}
			if err := skip.skip(def.kind, 1); err != nil || skip.r.pos != dec.r.pos || skip.prev != dec.prev {
				t.Fatalf("row %d: decoded to offset %d (chain %d), skipped to %d (chain %d), %v",
					rows, dec.r.pos, dec.prev, skip.r.pos, skip.prev, err)
			}
		}
		// A stream that decoded to its last byte indexes as that many rows,
		// and every checkpoint resumes where a walk from the top stands.
		if !clean || dec.r.len() != 0 {
			if err := cd.index(def.kind, rows+1); err != nil {
				corrupt("index", err)
			}
			return
		}
		if err := cd.index(def.kind, rows); err != nil {
			t.Fatalf("%d rows decoded cleanly, index = %v", rows, err)
		}
		walk := colDecoder{r: byteReader{b: cd.rows}, cd: cd}
		for row := 0; row < rows; row += seekStride {
			at := colDecoder{cd: cd}
			at.r.b = cd.rows
			if got := at.seek(def.kind, row+seekStride/2); got != row || at.r.pos != walk.r.pos || at.prev != walk.prev {
				t.Fatalf("checkpoint for row %d: row %d, offset %d (chain %d), a walk stands at %d (chain %d)",
					row, got, at.r.pos, at.prev, walk.r.pos, walk.prev)
			}
			if err := walk.skip(def.kind, min(seekStride, rows-row)); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// FuzzFooterParse throws arbitrary bytes at the footer parser; it must
// reject or accept without panicking, and every accepted footer must
// re-encode to something parseable.
func FuzzFooterParse(f *testing.F) {
	recs := genRecords(98, 8, monthStart(2024, time.April))
	var buf bytes.Buffer
	if err := Write(&buf, []ShardInput{{Year: 2024, Mon: time.April, Records: recs}}); err != nil {
		f.Fatal(err)
	}
	data := buf.Bytes()
	footOff := int(uint64FromTrailer(data))
	f.Add(data[footOff : len(data)-trailerLen])
	f.Add([]byte{})
	f.Add([]byte{0x01})

	f.Fuzz(func(t *testing.T, footer []byte) {
		metas, err := parseFooter(footer, 1<<40)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("non-corrupt footer error: %v", err)
			}
			return
		}
		re := appendFooter(nil, metas)
		if _, err := parseFooter(re, 1<<40); err != nil {
			t.Fatalf("re-encoded footer does not parse: %v", err)
		}
	})
}

func uint64FromTrailer(data []byte) uint64 {
	var u uint64
	for i := 7; i >= 0; i-- {
		u = u<<8 | uint64(data[len(data)-trailerLen+i])
	}
	return u
}
