package slurm

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
)

// MaxLineLen bounds one input line. A longer one ends the stream with
// an error naming its line, so a row the store loads is a row curate
// and /ingest accept.
const MaxLineLen = 8 << 20

// internCap bounds the per-reader string and flag caches. Past it the
// reader keeps decoding correctly but allocates fresh strings; real
// sacct columns (users, accounts, partitions, states) stay far below.
const internCap = 1 << 15

// ByteRecordReader is the streaming decoder for pipe-separated sacct
// text, the only one: it resolves the header's field accessors once and
// decodes one row per Next call into a reusable scratch record. Lines
// are pulled straight from the read buffer as []byte, columns are
// tokenized without string conversion, and typed fields decode through
// the Field.SetBytes parsers (ParseTimeBytes, ParseDurationBytes, ...).
// Free-form string columns and TRES keys are interned — one allocation
// per distinct value per reader, not per row — and the two TRES maps are
// the reader's own, cleared and refilled row after row, so steady-state
// decode of a repetitive trace allocates nothing per row.
//
// The contract is colstore.Cursor's: the returned record, its TRES maps
// included, and the Row backing storage are valid only until the
// following Next call, and Record.Clone is how a caller keeps a row. A
// blank TRES cell is a nil map. The strings and flag lists a record
// shares with other rows are never written through.
type ByteRecordReader struct {
	lineReader
	fields []*Field // pre-resolved header columns, in header order
	names  []string // header spellings, for error attribution
	cols   [][]byte // per-row column scratch; subslices alias the read buffer
	rec    Record   // per-row record scratch

	interned   *Interner           // cell bytes → immutable string, for Set-path fields and TRES keys
	flagsCache map[string][]string // raw Flags cell → pre-split, capacity-clipped slice
	reqTRES    TRES                // ReqTRES's map, refilled per row
	usageTRES  TRES                // TRESUsageInAve's map, refilled per row
}

// NewByteRecordReader reads and validates the header line of r through
// a 64 KiB read buffer. An empty input or a header naming an unknown
// field is an error.
func NewByteRecordReader(r io.Reader) (*ByteRecordReader, error) {
	return NewByteRecordReaderSize(r, 1<<16)
}

// NewByteRecordReaderSize is NewByteRecordReader with a read buffer of
// size bytes (16 at least), for a caller whose whole input is smaller
// than the default. A line longer than the buffer still decodes, through
// the reader's long-line spill, up to MaxLineLen.
func NewByteRecordReaderSize(r io.Reader, size int) (*ByteRecordReader, error) {
	br := newByteRecordReader(bufio.NewReaderSize(r, size), nil, nil, 0)
	header, err := br.readLine()
	if err == io.EOF {
		return nil, fmt.Errorf("slurm: input has no header")
	}
	if err != nil {
		return nil, err
	}
	br.fields, br.names, err = resolveHeader(string(header))
	if err != nil {
		return nil, err
	}
	br.cols = make([][]byte, 0, len(br.fields))
	return br, nil
}

// newByteRecordReader wraps an already-positioned reader whose header
// was resolved elsewhere (the ChunkScanner path). lineBase seeds the
// line counter: 1 for a chunk that starts right after the header (so
// its line numbers are the input's), 0 for interior chunks, whose line
// numbers are then chunk-relative.
func newByteRecordReader(r *bufio.Reader, fields []*Field, names []string, lineBase int) *ByteRecordReader {
	return &ByteRecordReader{
		lineReader: lineReader{r: r, line: lineBase},
		fields:     fields,
		names:      names,
		cols:       make([][]byte, 0, len(fields)),
		interned:   NewInterner(),
		flagsCache: make(map[string][]string),
	}
}

// Fields returns the header's field names in column order. The slice is
// owned by the reader; callers must not modify it.
func (br *ByteRecordReader) Fields() []string { return br.names }

// Line returns the line number of the most recently consumed input
// line: 1-based in the input when the reader saw the header itself,
// chunk-relative for an interior chunk.
func (br *ByteRecordReader) Line() int { return br.line }

// Row returns the raw columns of the row Next most recently decoded.
// The backing storage aliases the read buffer and is reused by the
// following Next call.
func (br *ByteRecordReader) Row() [][]byte { return br.cols }

// lineReader pulls lines out of a bufio.Reader under the one row cap,
// MaxLineLen, counting them. The reader of a chunk and the scanner that
// reads a file's header both read through one.
type lineReader struct {
	r    *bufio.Reader
	long []byte // spill for lines longer than the read buffer
	line int    // lines consumed so far (base included)
}

// next returns the next input line as read, its "\n" included, the
// final unterminated line included, and counts it. The slice aliases
// the read buffer (or the long-line spill, which grows only when a line
// outgrows the buffer) and is valid until the next call. A line longer
// than MaxLineLen, its "\n" not counted, is an error naming it.
func (lr *lineReader) next() ([]byte, error) {
	line, err := lr.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		lr.long = append(lr.long[:0], line...)
		for err == bufio.ErrBufferFull {
			if len(lr.long) > MaxLineLen {
				return nil, tooLong(lr.line + 1)
			}
			line, err = lr.r.ReadSlice('\n')
			lr.long = append(lr.long, line...)
		}
		line = lr.long
	}
	if err != nil && err != io.EOF {
		return nil, err
	}
	if len(line) == 0 {
		return nil, io.EOF
	}
	lr.line++
	if len(trimEOL(line, '\n')) > MaxLineLen {
		return nil, tooLong(lr.line)
	}
	return line, nil
}

// readLine is next with the trailing "\n" and one "\r" before it
// stripped.
func (lr *lineReader) readLine() ([]byte, error) {
	line, err := lr.next()
	return trimEOL(trimEOL(line, '\n'), '\r'), err
}

// trimEOL drops one trailing c.
func trimEOL(line []byte, c byte) []byte {
	if n := len(line); n > 0 && line[n-1] == c {
		return line[:n-1]
	}
	return line
}

func tooLong(line int) error {
	return fmt.Errorf("slurm: line %d: row exceeds %d bytes", line, MaxLineLen)
}

// Next decodes the next data row. Blank lines are skipped. It returns
// io.EOF at the end of input, a *RowError for a malformed row (callers
// may keep reading past it), and any other error terminally.
func (br *ByteRecordReader) Next() (*Record, error) {
	for {
		line, err := br.readLine()
		if err != nil {
			return nil, err
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		br.cols = SplitFieldsBytes(br.cols[:0], line)
		if len(br.cols) != len(br.fields) {
			return nil, &RowError{Line: br.line,
				Err: fmt.Errorf("slurm: %d columns, want %d", len(br.cols), len(br.fields))}
		}
		br.rec = Record{}
		for i, f := range br.fields {
			if err := br.setField(f, br.cols[i]); err != nil {
				return nil, &RowError{Line: br.line,
					Err: fmt.Errorf("slurm: field %s: %w", br.names[i], err)}
			}
		}
		return &br.rec, nil
	}
}

// setField routes one cell to its decoder: the reader's own maps for
// the TRES columns, the byte fast path when the field has one, the
// cached-split path for Flags, and Set over an interned copy for the
// free-form string columns.
func (br *ByteRecordReader) setField(f *Field, col []byte) (err error) {
	switch {
	case f == reqTRESField:
		br.rec.TRESReq, err = parseTRES(&br.reqTRES, col, br.interned)
		return err
	case f == usageTRESField:
		br.rec.TRESUsageInAve, err = parseTRES(&br.usageTRES, col, br.interned)
		return err
	case f.SetBytes != nil:
		return f.SetBytes(&br.rec, col)
	case f == flagsField:
		br.rec.Flags = br.flagsFor(col)
		return nil
	default:
		return f.Set(&br.rec, br.intern(col))
	}
}

// intern returns a string with b's bytes, allocating only on the first
// sighting of a value (while the cache has room).
func (br *ByteRecordReader) intern(b []byte) string { return br.interned.Intern(b) }

// flagsFor returns the parsed flag list for a raw Flags cell, splitting
// each distinct cell value once per reader. Cached slices are clipped to
// their length so a consumer append (the Backfill column merging
// FlagBackfill in) reallocates instead of scribbling on the shared
// backing array.
func (br *ByteRecordReader) flagsFor(b []byte) []string {
	if fl, ok := br.flagsCache[string(b)]; ok { // no alloc: map lookup on []byte key
		return fl
	}
	var tmp Record
	tmp.setFlags(string(b))
	fl := tmp.Flags
	if fl != nil {
		fl = fl[:len(fl):len(fl)]
	}
	if len(br.flagsCache) < internCap {
		br.flagsCache[string(b)] = fl
	}
	return fl
}

// All returns the reader's remaining rows as a RecordSeq: malformed rows
// are yielded as (nil, *RowError) and iteration continues; a terminal
// error is yielded last. Records alias the reader's scratch storage.
func (br *ByteRecordReader) All() RecordSeq {
	return func(yield func(*Record, error) bool) {
		for {
			rec, err := br.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				if _, ok := err.(*RowError); ok {
					if !yield(nil, err) {
						return
					}
					continue
				}
				yield(nil, err)
				return
			}
			if !yield(rec, nil) {
				return
			}
		}
	}
}
