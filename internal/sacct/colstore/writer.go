package colstore

// The write side. One row encoder, encodeRow, appends a record to the 59
// column encoders in the pinned column order. A Builder runs it row by
// row over one month and seals the month into a one-shard file in a heap
// slice of its own size — the segment a store keeps, or a shard on its way
// into a file. Seal, Write and the store's Ingest all build through it.
// Write seals one Builder per month, months on up to GOMAXPROCS goroutines,
// and then copies each sealed shard's column regions into the output byte
// for byte, checksums and all; a shard handed to it already sealed is
// verified and copied the same way, not re-encoded.

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"slurmsight/internal/pool"
	"slurmsight/internal/slurm"
)

// ShardInput is one month shard to serialise: either Records, which
// should be in (submit, job-id) emission order — the writer detects and
// records sortedness in the footer so readers can skip the re-sort on
// load, but unsorted shards are stored faithfully — or a Shard already
// sealed, whose column regions are copied as they are, footer flags and
// checksums with them, once its own Load has verified every column. A
// column the shard's file holds beyond the schema is not copied.
type ShardInput struct {
	Year    int
	Mon     time.Month
	Records []slurm.Record
	Shard   *Shard // when set, it is the month, and Records is ignored
}

// Write serialises shards into the columnar format. Shards are written
// in the order given; sacct passes them chronologically. Months are
// encoded on GOMAXPROCS goroutines; the bytes are the same at any width.
// A row with a time the format cannot hold is an error, as in Seal, and
// nothing is written.
func Write(w io.Writer, shards []ShardInput) error {
	return writeWorkers(w, shards, runtime.GOMAXPROCS(0))
}

// writeWorkers is Write encoding up to workers months at once.
func writeWorkers(w io.Writer, shards []ShardInput, workers int) error {
	sealed, err := Build(len(shards), workers, func(b *Builder, i int) (*Shard, error) {
		return shards[i].seal(b)
	})
	if err != nil {
		return err
	}
	return copyShards(w, sealed)
}

// seal returns the input as a sealed shard: its own shard, verified by its
// own Load, else the one b encodes from its rows.
func (in *ShardInput) seal(b *Builder) (*Shard, error) {
	if sh := in.Shard; sh != nil {
		if err := sh.Load(context.Background(), AllColumns); err != nil {
			return nil, err
		}
		return sh, nil
	}
	b.Reset(in.Year, in.Mon, len(in.Records))
	for i := range in.Records {
		if err := b.Add(&in.Records[i]); err != nil {
			return nil, err
		}
	}
	return b.Seal()
}

// copyShards writes the file of the sealed shards, in order: the header,
// each shard's column regions copied from its own file in pinned order —
// adjacent regions in one write — then a footer that places them, and the
// trailer. A mapped page the source file no longer backs is ErrCorrupt.
func copyShards(w io.Writer, shards []*Shard) (err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			if err = AsFault(r); err == nil {
				panic(r)
			}
		}
	}()
	if _, err := w.Write(appendHeader(nil)); err != nil {
		return err
	}
	offset := uint64(headerLen)
	metas := make([]shardMeta, len(shards))
	for i, sh := range shards {
		metas[i] = sh.meta
		metas[i].cols = make([]columnMeta, numColumns)
		src := sh.f.data
		lo := sh.cols[0].meta.offset // the run of src not yet written
		hi := lo
		for ci := range sh.cols {
			m := *sh.cols[ci].meta
			if m.offset != hi {
				if _, err := w.Write(src[lo:hi]); err != nil {
					return err
				}
				lo, hi = m.offset, m.offset
			}
			hi += m.length
			m.name, m.offset, offset = columns[ci].name, offset, offset+m.length
			metas[i].cols[ci] = m
		}
		if _, err := w.Write(src[lo:hi]); err != nil {
			return err
		}
	}
	footer := appendFooter(nil, metas)
	_, err = w.Write(appendTrailer(footer, offset, footer))
	return err
}

func appendHeader(b []byte) []byte {
	b = append(b, headerMagic...)
	b = binary.LittleEndian.AppendUint16(b, Version)
	return binary.LittleEndian.AppendUint16(b, 0) // reserved
}

// appendTrailer appends the trailer of a file whose footer, at offset,
// is footer.
func appendTrailer(b []byte, offset uint64, footer []byte) []byte {
	b = binary.LittleEndian.AppendUint64(b, offset)
	b = binary.LittleEndian.AppendUint32(b, checksum(footer))
	return append(b, trailerMagic...)
}

// Build seals n shards on up to workers goroutines, each with a Builder of
// its own that it reuses shard after shard: build(b, i) returns shard i.
// The shards come back in order; the error is the first, in that order,
// that a build returned, and once one has failed no further build starts.
func Build(n, workers int, build func(b *Builder, i int) (*Shard, error)) ([]*Shard, error) {
	out := make([]*Shard, n)
	bs := make([]*Builder, max(1, min(workers, n))) // apart, so no two share a cache line
	var started atomic.Int64
	err := pool.Run(n, workers, func(w, i int) (err error) {
		started.Add(1)
		if bs[w] == nil {
			bs[w] = new(Builder)
		}
		out[i], err = build(bs[w], i)
		if started.Load() == int64(n) {
			bs[w] = nil // no month is left for w: free its scratch while the rest finish
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Builder encodes one month's rows, one at a time, into its column
// regions and seals them into a shard. Reset starts a month; the zero
// Builder is ready for one. A Builder reused month after month keeps its
// scratch, so it allocates little beyond the shards it seals. It is not
// safe for concurrent use.
type Builder struct {
	year int
	mon  time.Month
	encs [numColumns]colEncoder
	rows int

	sorted         bool
	minSub, maxSub int64
	lastID         slurm.JobID

	scratch []byte // the column row streams, carved by Reset
	foot    []byte // the footer, measured before the file is sized
}

// rowBytes is what one row of each kind usually takes, which Reset sizes
// each column's row stream by, and dictBytes what a dictionary usually
// takes; a column that needs more grows on its own.
var rowBytes = [...]int{kindTime: 6, kindDur: 7, kindInt: 2, kindDict: 1, kindState: 1,
	kindJobID: 7, kindExit: 2, kindMem: 3, kindTRES: 3}

const dictBytes = 256

// Reset starts the builder on month year-mon, sizing every column for
// rows rows, all of them carved from one scratch slice.
func (b *Builder) Reset(year int, mon time.Month, rows int) {
	b.year, b.mon, b.rows = year, mon, 0
	b.sorted, b.minSub, b.maxSub = true, 0, 0
	size := func(kind colKind) (n, dict int) {
		if kind.hasDict() {
			dict = dictBytes
		}
		return rows * rowBytes[kind], dict
	}
	total := 0
	for ci := range columns {
		n, dict := size(columns[ci].kind)
		total += n + dict
	}
	if cap(b.scratch) < total {
		b.scratch = make([]byte, total)
	}
	off := 0
	carve := func(n int) []byte {
		off += n
		return b.scratch[off-n : off-n : off]
	}
	for ci := range b.encs {
		n, dict := size(columns[ci].kind)
		b.encs[ci].reset(carve(n), carve(dict))
	}
}

// Holds reports whether the format can hold r: a nonzero time outside what
// int64 unix nanoseconds span, 1678 to 2262, would read back as a
// different time, and is an error. A zero time ("Unknown") is held.
func Holds(r *slurm.Record) error {
	for _, t := range [...]*time.Time{&r.Submit, &r.Eligible, &r.Start, &r.End} {
		if !t.IsZero() && (t.Before(minTime) || t.After(maxTime)) {
			return fmt.Errorf("time %s is outside what the format holds", *t)
		}
	}
	return nil
}

// Add encodes one row. A row the format cannot hold (Holds) is an error,
// and the builder is to be Reset.
func (b *Builder) Add(r *slurm.Record) error {
	if err := Holds(r); err != nil {
		return fmt.Errorf("colstore: row %d: %w", b.rows, err)
	}
	sub := r.Submit.UnixNano()
	if b.rows == 0 {
		b.minSub, b.maxSub = sub, sub
	} else {
		b.sorted = b.sorted && (sub > b.maxSub || sub == b.maxSub && slurm.CompareJobID(b.lastID, r.ID) <= 0)
		b.minSub, b.maxSub = min(b.minSub, sub), max(b.maxSub, sub)
	}
	b.lastID = r.ID
	b.rows++
	encodeRow(&b.encs, r)
	return nil
}

// Seal returns the month's rows as a one-shard columnar file in a heap
// slice of its own size — header, the column regions written straight
// into it with their checksums, footer, trailer: exactly what Write
// produces for the shard — and the shard over it, its columns loading as
// cursors first project them.
func (b *Builder) Seal() (*Shard, error) {
	metas := []shardMeta{{year: b.year, mon: b.mon, rows: b.rows, sorted: b.sorted,
		minSub: b.minSub, maxSub: b.maxSub, cols: make([]columnMeta, numColumns)}}
	cols := metas[0].cols
	size := uint64(headerLen)
	for ci := range columns {
		n := uint64(b.encs[ci].regionLen(columns[ci].kind))
		cols[ci] = columnMeta{name: columns[ci].name, kind: columns[ci].kind, offset: size, length: n}
		size += n
	}
	b.foot = appendFooter(b.foot[:0], metas) // its length does not depend on the checksums
	data := appendHeader(make([]byte, 0, int(size)+len(b.foot)+trailerLen))
	for ci := range columns {
		data = b.encs[ci].appendRegion(columns[ci].kind, data)
		cols[ci].crc = checksum(data[cols[ci].offset:])
	}
	at := len(data)
	data = appendFooter(data, metas)
	data = appendTrailer(data, uint64(at), data[at:])
	f, err := OpenBytes(data)
	if err != nil {
		return nil, err
	}
	return f.shards[0], nil
}

// encodeRow appends r to the column encoders, one value each, in the
// pinned column order of buildColumns.
func encodeRow(e *[numColumns]colEncoder, r *slurm.Record) {
	// Job identification.
	e[0].intVal(r.ID.Job) // JobID
	e[0].intVal(r.ID.Array)
	e[0].uVal(uint64(r.ID.Kind))
	e[0].intVal(r.ID.Step)
	e[1].dictVal(r.JobName)
	e[2].dictVal(r.User)
	e[3].intVal(r.UID)
	e[4].dictVal(r.Group)
	e[5].dictVal(r.Account)
	e[6].dictVal(r.Cluster)
	e[7].dictVal(r.Partition)
	e[8].dictVal(r.Reservation)
	e[9].intVal(r.ReservationID)
	// Timing.
	e[10].timeVal(r.Submit)
	e[11].timeVal(r.Start)
	e[12].timeVal(r.End)
	e[13].intVal(int64(r.Elapsed))
	e[14].intVal(int64(r.Timelimit))
	// Resource requests.
	e[15].intVal(r.NNodes)
	e[16].intVal(r.NCPUs)
	e[17].intVal(r.NTasks)
	e[18].intVal(r.ReqNodes)
	e[19].intVal(r.ReqCPUs)
	e[20].intVal(r.ReqMem) // ReqMem
	if r.ReqMemPerCPU {
		e[20].uVal(1)
	} else {
		e[20].uVal(0)
	}
	e[21].dictVal(r.ReqGRES)
	e[22].dictVal(r.Licenses)
	e[23].dictVal(r.Layout)
	// Resource usage.
	e[24].intVal(r.VMSize)
	e[25].intVal(r.MaxVMSize)
	e[26].intVal(int64(r.AveCPU))
	e[27].intVal(r.MaxRSS)
	e[28].intVal(r.AveRSS)
	e[29].intVal(r.AvePages)
	e[30].intVal(int64(r.TotalCPU))
	e[31].intVal(int64(r.UserCPU))
	e[32].intVal(int64(r.SystemCPU))
	e[33].dictVal(r.NodeList)
	e[34].intVal(r.ConsumedEnergy)
	// IO.
	e[35].dictVal(r.WorkDir)
	e[36].intVal(r.AveDiskRead)
	e[37].intVal(r.AveDiskWrite)
	e[38].intVal(r.MaxDiskRead)
	e[39].intVal(r.MaxDiskWrite)
	// Job state.
	e[40].uVal(uint64(r.State))
	e[41].intVal(int64(r.ExitCode)) // ExitCode
	e[41].intVal(int64(r.ExitSignal))
	e[42].dictVal(r.DerivedExitCode)
	e[43].dictVal(r.Reason)
	e[44].intVal(int64(r.Suspended))
	e[45].intVal(r.Restarts)
	e[46].dictVal(r.Constraints)
	// Scheduling metadata.
	e[47].intVal(r.Priority)
	e[48].timeVal(r.Eligible)
	e[49].dictVal(r.QOS)
	e[50].dictVal(r.QOSReq)
	e[51].flagsVal(r)
	e[52].tresVal(r.TRESUsageInAve)
	e[53].tresVal(r.TRESReq)
	// Special indicators.
	e[54].dictVal(r.Dependency)
	e[55].intVal(r.ArrayJobID)
	// Misc.
	e[56].dictVal(r.Comment)
	e[57].dictVal(r.SystemComment)
	e[58].dictVal(r.AdminComment)
}

// Seal encodes one month of sorted records as a one-shard columnar file
// in memory and returns the shard over it, every column loaded: a Builder
// run over recs (see Builder.Seal). The shard reads through the same
// Load, SubmitWindow and Cursor as a mapped one, and nothing of recs is
// retained. A row with a time the format cannot hold is an error, not a
// silently wrong row. Seal encodes on the caller's goroutine alone: it
// runs under a live append.
func Seal(year int, mon time.Month, recs []slurm.Record) (*Shard, error) {
	var b Builder
	sh, err := (&ShardInput{Year: year, Mon: mon, Records: recs}).seal(&b)
	if err != nil {
		return nil, err
	}
	if err := sh.Load(context.Background(), AllColumns); err != nil {
		return nil, err
	}
	return sh, nil
}

// minTime and maxTime bound the times a time column holds.
var minTime, maxTime = time.Unix(0, math.MinInt64), time.Unix(0, math.MaxInt64)
