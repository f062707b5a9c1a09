package colstore

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"slurmsight/internal/obs"
	"slurmsight/internal/slurm"
)

// Stats is a point-in-time snapshot of a file's read-side counters: the
// projection proof. BytesRead counts only the column regions a cursor
// projected (plus the footer), so a two-field query over a 59-column shard
// shows two columns' bytes, not the shard's.
type Stats struct {
	ShardsOpened int64 // shards a cursor was opened over
	ColumnsRead  int64 // column regions projected (every open counts)
	BytesRead    int64 // bytes of those regions + footer bytes
	BytesMapped  int64 // bytes of file mapped (or read on the fallback path)
	RowsDecoded  int64 // rows cursors stepped over
}

// File is an opened columnar store. Opening costs one trailer read, one
// footer parse, and one mapping — no row data is touched until a cursor
// asks for it. A File is safe for concurrent cursors.
type File struct {
	path   string
	data   []byte
	mapped bool // data is an mmap region, not heap
	shards []*Shard

	mu sync.Mutex // guards interner (dictionary load) only
	in *slurm.Interner

	shardsOpened atomic.Int64
	columnsRead  atomic.Int64
	bytesRead    atomic.Int64
	rowsDecoded  atomic.Int64

	// obs mirrors; nil until Instrument, and nil-safe throughout.
	cShards, cColumns, cBytes, cRows *obs.Counter
	gMapped                          *obs.Gauge
}

// Shard exposes one month's footer metadata and reads its columns
// through a Cursor. What a column needs beyond its mapped bytes — the
// checksum verdict, the dictionary, the seek index — is built the first
// time a cursor projects it and kept for the life of the file.
type Shard struct {
	f    *File
	meta shardMeta
	cols [numColumns]colData // by place in the pinned column order
}

// colData is one column of one shard, resident: nothing until load, then
// the verified row stream (still the mapped bytes) and the few heap
// kilobytes that make it steppable from any row.
type colData struct {
	meta   *columnMeta // footer entry; nil when the shard lacks the column
	once   sync.Once
	loaded atomic.Bool // once has run; Load asks, to tell a first touch
	err    error

	rows  []byte     // the region past its dictionary header
	dict  []string   // dictionary-bearing kinds
	flags [][]string // the Flags column: dict entries split, clipped
	seek  seekIndex
}

// seekStride is the distance in rows between a column's checkpoints. A
// seek lands on the checkpoint at or before its row and steps over the
// rest, so a window query pays for at most a stride of rows it does not
// want at either end; at 256 the index of a 59-column, 36k-row shard is
// 75 KB.
const seekStride = 256

// seekIndex is a column's sparse checkpoints: entry k is the decoder
// state in front of row k*seekStride. Only time columns fill prev (the
// delta chain) and last (the row before the checkpoint as unix ns, noTime
// for the zero time or no row), which is what orders a window search
// over Submit.
type seekIndex struct {
	off        []int
	prev, last []int64
}

// noTime is the zero time's place in a time column's value order: before
// every real timestamp, as time.Time orders it.
const noTime = math.MinInt64

// Open maps path and parses its footer. A file without the columnar
// magic returns ErrNotColstore (fall back to the text loader); an
// unknown version returns ErrVersion; structural damage returns
// ErrCorrupt.
func Open(path string) (*File, error) {
	data, mapped, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	f := &File{path: path, data: data, mapped: mapped, in: slurm.NewInterner()}
	if err := f.parse(); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// OpenBytes is Open over a columnar file held in memory — a request body,
// or the bytes Seal encoded. The file aliases data, which the caller must
// not change while the file is in use.
func OpenBytes(data []byte) (*File, error) {
	f := &File{path: "(memory)", data: data, in: slurm.NewInterner()}
	if err := f.parse(); err != nil {
		return nil, err
	}
	return f, nil
}

func (f *File) parse() error {
	data := f.data
	if len(data) < len(headerMagic) || string(data[:len(headerMagic)]) != headerMagic {
		return ErrNotColstore
	}
	if len(data) < headerLen+trailerLen {
		// The magic is there but the file cannot hold a trailer: a
		// truncated columnar file, not a text dump — no fallback.
		return fmt.Errorf("%w: %d bytes is too short for a columnar file", ErrCorrupt, len(data))
	}
	version := binary.LittleEndian.Uint16(data[len(headerMagic):])
	if version != Version {
		return fmt.Errorf("%w: file is v%d, reader is v%d", ErrVersion, version, Version)
	}
	trailer := data[len(data)-trailerLen:]
	if string(trailer[12:]) != trailerMagic {
		return fmt.Errorf("%w: trailer magic missing", ErrCorrupt)
	}
	footOff := binary.LittleEndian.Uint64(trailer)
	footCRC := binary.LittleEndian.Uint32(trailer[8:])
	if footOff < uint64(headerLen) || footOff > uint64(len(data)-trailerLen) {
		return fmt.Errorf("%w: footer offset %d outside file", ErrCorrupt, footOff)
	}
	footer := data[footOff : len(data)-trailerLen]
	if checksum(footer) != footCRC {
		return fmt.Errorf("%w: footer checksum mismatch", ErrCorrupt)
	}
	metas, err := parseFooter(footer, footOff) // columns must precede the footer
	if err != nil {
		return err
	}
	f.bytesRead.Add(int64(len(footer)))
	f.shards = make([]*Shard, len(metas))
	for i, m := range metas {
		sh := &Shard{f: f, meta: m}
		for j := range sh.meta.cols {
			if ci, ok := lookupColumn(sh.meta.cols[j].name); ok {
				sh.cols[ci].meta = &sh.meta.cols[j]
			}
		}
		f.shards[i] = sh
	}
	return nil
}

// Close releases the mapping. Records cloned out of a cursor survive
// Close; the shards and any open cursor do not.
func (f *File) Close() error {
	data := f.data
	f.data = nil
	if f.mapped && data != nil {
		return unmapFile(data)
	}
	return nil
}

// Path returns the file the store was opened from.
func (f *File) Path() string { return f.path }

// Size returns the mapped file size in bytes.
func (f *File) Size() int64 { return int64(len(f.data)) }

// Shards returns the month shards in file order.
func (f *File) Shards() []*Shard { return f.shards }

// Instrument mirrors the file's counters into reg (colstore_* metrics).
// Counts accumulated before Instrument are carried over.
func (f *File) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	f.cShards = reg.Counter("colstore_shards_opened_total")
	f.cColumns = reg.Counter("colstore_columns_read_total")
	f.cBytes = reg.Counter("colstore_bytes_read_total")
	f.cRows = reg.Counter("colstore_rows_decoded_total")
	f.gMapped = reg.Gauge("colstore_bytes_mapped")
	f.cShards.Add(f.shardsOpened.Load())
	f.cColumns.Add(f.columnsRead.Load())
	f.cBytes.Add(f.bytesRead.Load())
	f.cRows.Add(f.rowsDecoded.Load())
	f.gMapped.Set(int64(len(f.data)))
}

// Stats snapshots the read counters.
func (f *File) Stats() Stats {
	return Stats{
		ShardsOpened: f.shardsOpened.Load(),
		ColumnsRead:  f.columnsRead.Load(),
		BytesRead:    f.bytesRead.Load(),
		BytesMapped:  int64(len(f.data)),
		RowsDecoded:  f.rowsDecoded.Load(),
	}
}

// Year, Mon, Rows, Sorted, and the submit range expose the footer
// metadata a reload needs — no row bytes are touched.
func (s *Shard) Year() int       { return s.meta.year }
func (s *Shard) Mon() time.Month { return s.meta.mon }
func (s *Shard) Rows() int       { return s.meta.rows }
func (s *Shard) Sorted() bool    { return s.meta.sorted }

// FileSize is the size in bytes of the file the shard is in: for a shard
// Seal built, the heap its one-shard file occupies.
func (s *Shard) FileSize() int64 { return s.f.Size() }

// SubmitRange returns the shard's min and max submit times; ok is false
// for an empty shard.
func (s *Shard) SubmitRange() (min, max time.Time, ok bool) {
	if s.meta.rows == 0 {
		return time.Time{}, time.Time{}, false
	}
	return time.Unix(0, s.meta.minSub).UTC(), time.Unix(0, s.meta.maxSub).UTC(), true
}

// ColumnNames returns the shard's column names in file order.
func (s *Shard) ColumnNames() []string {
	out := make([]string, len(s.meta.cols))
	for i := range s.meta.cols {
		out[i] = s.meta.cols[i].name
	}
	return out
}

// ColumnBytes returns the stored size of one column region, 0 when the
// column is unknown.
func (s *Shard) ColumnBytes(name string) int64 {
	if ci, ok := lookupColumn(name); ok && s.cols[ci].meta != nil {
		return int64(s.cols[ci].meta.length)
	}
	return 0
}

// column returns column ci ready to step, loading it on first use: the
// region's checksum is verified before a byte of it is decoded, the
// dictionary is read (strings interned file-wide, so a user in twelve
// shards is one string), and one walk over the row stream lays the seek
// checkpoints and proves the stream holds exactly the shard's rows. The
// outcome, error included, is kept: a corrupt column fails every scan
// that projects it, a good one is never verified twice.
func (s *Shard) column(ci int) (*colData, error) {
	cd := &s.cols[ci]
	cd.once.Do(func() {
		cd.err = s.load(cd, &columns[ci])
		cd.loaded.Store(true)
	})
	return cd, cd.err
}

// load reads under a fault window: a region the file no longer backs
// (truncated under the store) is the column's ErrCorrupt, not a SIGBUS.
func (s *Shard) load(cd *colData, def *colDef) (err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			if err = AsFault(r); err == nil {
				panic(r)
			}
			err = fmt.Errorf("column %s: %w", def.name, err)
		}
	}()
	if cd.meta == nil {
		return fmt.Errorf("%w: shard %s has no column %s", ErrCorrupt, s, def.name)
	}
	if cd.meta.kind != def.kind {
		return fmt.Errorf("%w: column %s stored as kind %d, schema wants %d",
			ErrCorrupt, def.name, cd.meta.kind, def.kind)
	}
	data := s.f.data
	if data == nil {
		return fmt.Errorf("colstore: %s: file is closed", s.f.path)
	}
	region := data[cd.meta.offset : cd.meta.offset+cd.meta.length]
	if checksum(region) != cd.meta.crc {
		return fmt.Errorf("%w: column %s checksum mismatch", ErrCorrupt, def.name)
	}
	cd.rows = region
	if def.kind.hasDict() {
		err = func() error {
			s.f.mu.Lock() // the interner is the one thing concurrent loads share
			defer s.f.mu.Unlock()
			return cd.readDict(def, s.f.in)
		}()
	}
	if err == nil {
		err = cd.index(def.kind, s.meta.rows)
	}
	if err != nil {
		return fmt.Errorf("column %s: %w", def.name, err)
	}
	return nil
}

// readDict reads the dictionary off the front of cd.rows — strings
// interned through in, so a user in twelve shards is one string — and
// derives the column's per-entry state.
func (cd *colData) readDict(def *colDef, in *slurm.Interner) error {
	r := byteReader{b: cd.rows}
	n, err := r.uvarint()
	if err != nil {
		return err
	}
	if n > uint64(r.len()) {
		return fmt.Errorf("%w: dictionary of %d entries exceeds region", ErrCorrupt, n)
	}
	cd.dict = make([]string, n)
	for i := range cd.dict {
		b, err := r.lenBytes()
		if err != nil {
			return err
		}
		cd.dict[i] = in.Intern(b)
	}
	cd.rows = cd.rows[r.pos:]
	if def.load != nil {
		return def.load(cd)
	}
	return nil
}

// index walks cd.rows once, laying a checkpoint every seekStride rows and
// proving the stream holds exactly rows rows.
func (cd *colData) index(kind colKind, rows int) error {
	if rows < 0 || rows > len(cd.rows) { // every kind spends a byte a row at least
		return fmt.Errorf("%w: %d rows in %d bytes", ErrCorrupt, rows, len(cd.rows))
	}
	d := colDecoder{r: byteReader{b: cd.rows}, last: noTime, cd: cd}
	n := (rows + seekStride - 1) / seekStride
	cd.seek.off = make([]int, 0, n)
	if kind == kindTime {
		cd.seek.prev, cd.seek.last = make([]int64, 0, n), make([]int64, 0, n)
	}
	for row := 0; row < rows; row += seekStride {
		cd.seek.off = append(cd.seek.off, d.r.pos)
		if kind == kindTime {
			cd.seek.prev, cd.seek.last = append(cd.seek.prev, d.prev), append(cd.seek.last, d.last)
		}
		if err := d.skip(kind, min(seekStride, rows-row)); err != nil {
			return err
		}
	}
	if d.r.len() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, d.r.len())
	}
	return nil
}

// Load makes the columns in cols ready to read, loading those no cursor
// has projected before (see column): the first checksum failure or
// malformed column, in pinned order, is the error, now and on every later
// call. With AllColumns it verifies the whole shard, so that damage
// anywhere in it is an error before rows are added beside it rather than
// on the scan that first projects the damaged column. A call that has
// something to load reports itself as a "colstore-shard-open" child of the
// span ctx carries — the cost the request that first touches a shard pays
// for every later one; a call that finds everything loaded costs a few
// atomic reads.
func (s *Shard) Load(ctx context.Context, cols ColSet) (err error) {
	first := false
	for set := cols; set != 0 && !first; set &= set - 1 {
		first = !s.cols[bits.TrailingZeros64(uint64(set))].loaded.Load()
	}
	var bytes int64
	if first {
		if sp := obs.SpanFromContext(ctx).Child("colstore-shard-open"); sp != nil {
			sp.SetAttr("shard", s.String())
			sp.SetAttrInt("rows", int64(s.meta.rows))
			sp.SetAttrInt("columns", int64(cols.Len()))
			defer func() {
				sp.SetAttrInt("bytes", bytes)
				if err != nil {
					sp.SetAttr("error", err.Error())
				}
				sp.End()
			}()
		}
	}
	for set := cols; set != 0; set &= set - 1 {
		cd, err := s.column(bits.TrailingZeros64(uint64(set)))
		if err != nil {
			return err
		}
		bytes += int64(cd.meta.length)
	}
	return nil
}

// SubmitWindow narrows a sorted shard to the rows that can hold a submit
// time in [start, end), by binary search over the Submit column's
// checkpoints: every row outside [lo, hi) is outside the window, and up
// to a stride of rows inside it at either end may be too — the scan's own
// window check drops those. A zero bound is open, and an unsorted shard
// is never narrowed.
func (s *Shard) SubmitWindow(start, end time.Time) (lo, hi int, err error) {
	lo, hi = 0, s.meta.rows
	if !s.meta.sorted || start.IsZero() && end.IsZero() {
		return lo, hi, nil
	}
	ci, _ := lookupColumn("Submit")
	cd, err := s.column(ci)
	if err != nil {
		return 0, 0, err
	}
	// last[k] is row k*seekStride-1, so the rows in front of checkpoint k
	// all submit at or before it. The comparison is made as times: a bound
	// may lie outside what int64 nanoseconds hold.
	last := cd.seek.last
	firstAtOrAfter := func(t time.Time) int {
		return sort.Search(len(last), func(k int) bool {
			return last[k] != noTime && !time.Unix(0, last[k]).Before(t)
		})
	}
	if !start.IsZero() {
		if k := firstAtOrAfter(start); k > 0 {
			lo = (k - 1) * seekStride
		}
	}
	if !end.IsZero() {
		if k := firstAtOrAfter(end); k < len(last) {
			hi = k * seekStride
		}
	}
	return lo, max(lo, hi), nil
}

// String renders the shard's month, "2024-03".
func (s *Shard) String() string { return fmt.Sprintf("%04d-%02d", s.meta.year, int(s.meta.mon)) }

// SniffBytes reports whether b starts with the columnar magic, for request
// bodies that may carry either format.
func SniffBytes(b []byte) bool {
	return len(b) >= len(headerMagic) && string(b[:len(headerMagic)]) == headerMagic
}
