// Package colstore implements the binary columnar shard store behind
// sacct.DumpBinary/OpenBinary: a versioned, mmap-friendly on-disk format
// that lays each month shard out column-major so readers materialise
// only the columns a query needs and a reload costs O(open + footer)
// instead of O(parse) over the whole trace.
//
// File layout (DESIGN.md §5g):
//
//	header   : magic "SLURMCOL" | uint16 LE version | uint16 LE reserved
//	shards   : per month, the column regions back to back, each region
//	           [dictionary]? + row-data (varint streams, see schema.go)
//	footer   : shard directory — per shard the month, row count, sorted
//	           flag, min/max submit (unix ns), and per column the name,
//	           kind, absolute offset, length, and CRC-32 of the region
//	trailer  : uint64 LE footer offset | uint32 LE footer CRC-32 |
//	           magic "LOCMRULS"
//
// Readers locate the footer from the fixed-size trailer, verify its
// checksum, and then touch column regions lazily, through a Cursor: a
// region's CRC is verified the first time a cursor projects it — once
// per column per open — so a projected query never pays for (or
// validates) columns it does not read, and no query pays twice.
package colstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"runtime"
	"time"
)

// Format constants. Version is bumped whenever the column schema, the
// encodings, or the footer layout change incompatibly; readers reject
// any version they do not know rather than guessing.
const (
	headerMagic  = "SLURMCOL"
	trailerMagic = "LOCMRULS"
	// Version is the current on-disk format version.
	Version = 1

	headerLen  = len(headerMagic) + 4 // magic + version + reserved
	trailerLen = 8 + 4 + len(trailerMagic)
)

// Typed errors. ErrNotColstore signals "this is not a columnar file at
// all" — callers fall back to the text loader; the others mean the file
// is columnar but unusable.
var (
	// ErrNotColstore marks a file without the columnar magic; the clean
	// fallback signal to the pipe-text path.
	ErrNotColstore = errors.New("colstore: not a columnar store file")
	// ErrVersion marks a columnar file written by an unknown format
	// version.
	ErrVersion = errors.New("colstore: unsupported format version")
	// ErrCorrupt marks a structurally invalid or checksum-failing file.
	ErrCorrupt = errors.New("colstore: corrupt file")
)

// AsFault returns the ErrCorrupt that a recovered panic value stands for
// when it is a memory fault — what reading a mapped page the file no
// longer backs raises under debug.SetPanicOnFault, the file having been
// truncated under its reader — and nil for any other value, which the
// caller re-panics.
func AsFault(r any) error {
	if re, ok := r.(runtime.Error); ok {
		if _, ok := re.(interface{ Addr() uintptr }); ok {
			return fmt.Errorf("%w: memory fault reading a mapped column, the file changed under its reader (%v)", ErrCorrupt, re)
		}
	}
	return nil
}

// colKind tags a column's encoding in the footer so readers can refuse
// a kind mismatch (schema drift) without decoding anything.
type colKind uint8

const (
	kindTime  colKind = iota + 1 // delta + zigzag varint unix-ns, 0 = zero time
	kindDur                      // zigzag varint nanoseconds
	kindInt                      // zigzag varint
	kindDict                     // dictionary + uvarint index per row
	kindState                    // uvarint slurm.State ordinal
	kindJobID                    // uvarint job, zigzag array, uvarint kind, uvarint step
	kindExit                     // zigzag code, zigzag signal
	kindMem                      // zigzag bytes, uvarint per-CPU flag
	kindTRES                     // key dictionary + per row: count, (key idx, zigzag value)…
)

func (k colKind) valid() bool { return k >= kindTime && k <= kindTRES }

// hasDict reports whether a column kind carries a dictionary header.
func (k colKind) hasDict() bool { return k == kindDict || k == kindTRES }

// zigzag folds signed ints into unsigned so small magnitudes of either
// sign stay short in varint form.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendUvarint appends u in unsigned LEB128 form.
func appendUvarint(b []byte, u uint64) []byte {
	return binary.AppendUvarint(b, u)
}

// uvarintLen is the length of u in unsigned LEB128 form.
func uvarintLen(u uint64) int {
	return (bits.Len64(u|1) + 6) / 7
}

// byteReader walks an encoded region with bounds checking; every decode
// error maps to ErrCorrupt so callers need not distinguish truncation
// from garbage.
type byteReader struct {
	b   []byte
	pos int
}

func (r *byteReader) len() int { return len(r.b) - r.pos }

// uvarint reads one varint. Most are a single byte — a dictionary index,
// a zero, a step's unchanged submit time — and skip the general loop.
func (r *byteReader) uvarint() (uint64, error) {
	if r.pos < len(r.b) && r.b[r.pos] < 0x80 {
		r.pos++
		return uint64(r.b[r.pos-1]), nil
	}
	u, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint at offset %d", ErrCorrupt, r.pos)
	}
	r.pos += n
	return u, nil
}

func (r *byteReader) varint() (int64, error) {
	u, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	return unzigzag(u), nil
}

// skipVarints steps over n varints without decoding them.
func (r *byteReader) skipVarints(n int) error {
	pos := r.pos
	for ; n > 0; pos++ {
		if pos >= len(r.b) {
			return fmt.Errorf("%w: region ends %d varints short", ErrCorrupt, n)
		}
		if r.b[pos] < 0x80 {
			n--
		}
	}
	r.pos = pos
	return nil
}

func (r *byteReader) bytes(n int) ([]byte, error) {
	if n < 0 || r.len() < n {
		return nil, fmt.Errorf("%w: %d bytes wanted, %d left", ErrCorrupt, n, r.len())
	}
	out := r.b[r.pos : r.pos+n]
	r.pos += n
	return out, nil
}

// lenBytes reads one length-prefixed string's bytes, aliasing the region.
func (r *byteReader) lenBytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.len()) {
		return nil, fmt.Errorf("%w: string length %d exceeds region", ErrCorrupt, n)
	}
	return r.bytes(int(n))
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// columnMeta is one footer entry: where a column region lives and how to
// check it.
type columnMeta struct {
	name   string // canonical slurm field name (e.g. "Submit", "NCPUS")
	kind   colKind
	offset uint64 // absolute file offset of the region
	length uint64
	crc    uint32
}

// shardMeta is the per-shard footer record: everything a reader needs
// to answer "does this shard overlap the query window and where are its
// columns" without touching row data.
type shardMeta struct {
	year   int
	mon    time.Month
	rows   int
	sorted bool  // rows are in (submit, job-id) emission order
	minSub int64 // min/max submit unix-ns over the shard; 0,0 when empty
	maxSub int64
	cols   []columnMeta
}

// appendFooter encodes the shard directory.
func appendFooter(b []byte, shards []shardMeta) []byte {
	b = appendUvarint(b, uint64(len(shards)))
	for _, sh := range shards {
		b = appendUvarint(b, uint64(sh.year))
		b = appendUvarint(b, uint64(sh.mon))
		b = appendUvarint(b, uint64(sh.rows))
		flags := uint64(0)
		if sh.sorted {
			flags = 1
		}
		b = appendUvarint(b, flags)
		b = appendUvarint(b, zigzag(sh.minSub))
		b = appendUvarint(b, zigzag(sh.maxSub))
		b = appendUvarint(b, uint64(len(sh.cols)))
		for _, c := range sh.cols {
			b = appendString(b, c.name)
			b = append(b, byte(c.kind))
			b = appendUvarint(b, c.offset)
			b = appendUvarint(b, c.length)
			b = binary.LittleEndian.AppendUint32(b, c.crc)
		}
	}
	return b
}

// parseFooter decodes the shard directory, validating every offset
// against the file size.
func parseFooter(data []byte, fileSize uint64) ([]shardMeta, error) {
	r := &byteReader{b: data}
	nshards, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nshards > uint64(len(data)) { // each shard needs ≥1 footer byte
		return nil, fmt.Errorf("%w: shard count %d exceeds footer size", ErrCorrupt, nshards)
	}
	shards := make([]shardMeta, 0, nshards)
	for i := uint64(0); i < nshards; i++ {
		var sh shardMeta
		year, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		mon, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if mon < 1 || mon > 12 {
			return nil, fmt.Errorf("%w: shard month %d out of range", ErrCorrupt, mon)
		}
		rows, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		flags, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		minSub, err := r.varint()
		if err != nil {
			return nil, err
		}
		maxSub, err := r.varint()
		if err != nil {
			return nil, err
		}
		ncols, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if ncols > uint64(r.len()) {
			return nil, fmt.Errorf("%w: column count %d exceeds footer size", ErrCorrupt, ncols)
		}
		sh.year, sh.mon = int(year), time.Month(mon)
		sh.rows, sh.sorted = int(rows), flags&1 != 0
		sh.minSub, sh.maxSub = minSub, maxSub
		sh.cols = make([]columnMeta, 0, ncols)
		for j := uint64(0); j < ncols; j++ {
			var c columnMeta
			name, err := r.lenBytes()
			if err != nil {
				return nil, err
			}
			if ci, ok := columnIndex[string(name)]; ok && columns[ci].name == string(name) {
				c.name = columns[ci].name // the usual name, not a copy of it
			} else {
				c.name = string(name)
			}
			kb, err := r.bytes(1)
			if err != nil {
				return nil, err
			}
			c.kind = colKind(kb[0])
			if !c.kind.valid() {
				return nil, fmt.Errorf("%w: column %s has unknown kind %d", ErrCorrupt, c.name, kb[0])
			}
			if c.offset, err = r.uvarint(); err != nil {
				return nil, err
			}
			if c.length, err = r.uvarint(); err != nil {
				return nil, err
			}
			crcb, err := r.bytes(4)
			if err != nil {
				return nil, err
			}
			c.crc = binary.LittleEndian.Uint32(crcb)
			if c.offset < uint64(headerLen) || c.length > fileSize || c.offset > fileSize-c.length {
				return nil, fmt.Errorf("%w: column %s region [%d,+%d) outside file of %d bytes",
					ErrCorrupt, c.name, c.offset, c.length, fileSize)
			}
			sh.cols = append(sh.cols, c)
		}
		shards = append(shards, sh)
	}
	if r.len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing footer bytes", ErrCorrupt, r.len())
	}
	return shards, nil
}

func checksum(b []byte) uint32 { return crc32.ChecksumIEEE(b) }
