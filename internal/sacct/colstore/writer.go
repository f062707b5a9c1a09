package colstore

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"slurmsight/internal/slurm"
)

// ShardInput is one month shard to serialise. Records should be in
// (submit, job-id) emission order — the writer detects and records
// sortedness in the footer so readers can skip the re-sort on load, but
// unsorted shards are stored faithfully.
type ShardInput struct {
	Year    int
	Mon     time.Month
	Records []slurm.Record
}

// Write serialises shards into the columnar format. Shards are written
// in the order given; sacct passes them chronologically. The columns of a
// shard are encoded on GOMAXPROCS workers; the bytes are the same at any
// width. A row with a time the format cannot hold is an error, as in
// Seal, and nothing is written.
func Write(w io.Writer, shards []ShardInput) error {
	return writeWorkers(w, shards, runtime.GOMAXPROCS(0))
}

// writeWorkers is Write on a given number of column workers.
func writeWorkers(w io.Writer, shards []ShardInput, workers int) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if err := encode(bw.Write, shards, workers); err != nil {
		return err
	}
	return bw.Flush()
}

// Seal encodes one month of sorted records as a one-shard columnar file
// in memory and returns the shard over it, every column loaded. The
// bytes are exactly what Write produces for that one shard — header,
// column regions with their checksums, footer, trailer — held in a heap
// slice of their own size, and the shard reads through the same Load,
// SubmitWindow and Cursor as a mapped one. Nothing of recs is retained.
// A row with a time the format cannot hold — outside what int64 unix
// nanoseconds span, 1678 to 2262 — is an error, not a silently wrong row.
// Seal encodes on the caller's goroutine alone: it runs under a live
// append, where its one reused region buffer is all it allocates beside
// the file.
func Seal(year int, mon time.Month, recs []slurm.Record) (*Shard, error) {
	// Encoded into a scratch slice sized for the usual row, so that it
	// seldom grows, then copied once into a slice of its own size.
	data := make([]byte, 0, 16<<10+256*len(recs))
	if err := encode(func(b []byte) (int, error) {
		data = append(data, b...)
		return len(b), nil
	}, []ShardInput{{Year: year, Mon: mon, Records: recs}}, 1); err != nil {
		return nil, err
	}
	f, err := OpenBytes(append(make([]byte, 0, len(data)), data...))
	if err != nil {
		return nil, err
	}
	sh := f.shards[0]
	if err := sh.Load(context.Background(), AllColumns); err != nil {
		return nil, err
	}
	return sh, nil
}

// encode emits the file, piece by piece, to write, encoding each shard's
// columns on up to workers goroutines. Every shard is checked before the
// first byte goes out.
func encode(write func([]byte) (int, error), shards []ShardInput, workers int) error {
	metas := make([]shardMeta, len(shards))
	for i, in := range shards {
		sorted, minSub, maxSub, err := shardStats(in.Records)
		if err != nil {
			return err
		}
		metas[i] = shardMeta{
			year: in.Year, mon: in.Mon, rows: len(in.Records),
			sorted: sorted, minSub: minSub, maxSub: maxSub,
			cols: make([]columnMeta, len(columns)),
		}
	}

	header := make([]byte, 0, headerLen)
	header = append(header, headerMagic...)
	header = binary.LittleEndian.AppendUint16(header, Version)
	header = binary.LittleEndian.AppendUint16(header, 0) // reserved
	if _, err := write(header); err != nil {
		return err
	}
	offset := uint64(headerLen)

	ce := newColumnEncoders(workers)
	for i, in := range shards {
		cols := metas[i].cols
		err := ce.encode(in.Records, cols, func(ci int, region []byte) error {
			cols[ci].offset = offset
			offset += uint64(len(region))
			_, err := write(region)
			return err
		})
		if err != nil {
			return err
		}
	}

	footer := appendFooter(nil, metas)
	if _, err := write(footer); err != nil {
		return err
	}
	trailer := make([]byte, 0, trailerLen)
	trailer = binary.LittleEndian.AppendUint64(trailer, offset)
	trailer = binary.LittleEndian.AppendUint32(trailer, checksum(footer))
	trailer = append(trailer, trailerMagic...)
	_, err := write(trailer)
	return err
}

// columnEncoders encodes a shard's column regions on a fixed number of
// workers, each with its own colEncoder. One worker encodes on the
// caller's goroutine into one region buffer reused column after column.
// More hold every region of the shard at once, in buffers reused shard
// after shard, so their extra peak memory is one shard's encoded size.
type columnEncoders struct {
	encs    []colEncoder
	regions [][]byte // one per column; only regions[0] at one worker
}

// newColumnEncoders sizes the workers to the columns: never more than
// there are columns, never fewer than one.
func newColumnEncoders(workers int) *columnEncoders {
	workers = max(1, min(workers, len(columns)))
	ce := &columnEncoders{encs: make([]colEncoder, workers), regions: make([][]byte, len(columns))}
	for i := range ce.encs {
		ce.encs[i].dict = make(map[string]uint64)
	}
	return ce
}

// encode encodes recs column by column, fills each column's name, kind,
// length and checksum in cols, and hands the regions to emit in column
// order. A region is only emit's until it returns.
func (ce *columnEncoders) encode(recs []slurm.Record, cols []columnMeta, emit func(ci int, region []byte) error) error {
	column := func(enc *colEncoder, ci int, dst []byte) []byte {
		col := &columns[ci]
		enc.reset()
		for ri := range recs {
			col.enc(enc, &recs[ri])
		}
		region := enc.region(col.kind, dst)
		cols[ci] = columnMeta{name: col.name, kind: col.kind, length: uint64(len(region)), crc: checksum(region)}
		return region
	}
	if len(ce.encs) == 1 {
		for ci := range columns {
			ce.regions[0] = column(&ce.encs[0], ci, ce.regions[0])
			if err := emit(ci, ce.regions[0]); err != nil {
				return err
			}
		}
		return nil
	}
	var next atomic.Int64 // the next column a worker takes
	var wg sync.WaitGroup
	for w := range ce.encs {
		wg.Add(1)
		go func(enc *colEncoder) {
			defer wg.Done()
			for ci := int(next.Add(1)) - 1; ci < len(columns); ci = int(next.Add(1)) - 1 {
				ce.regions[ci] = column(enc, ci, ce.regions[ci])
			}
		}(&ce.encs[w])
	}
	wg.Wait()
	for ci := range columns {
		if err := emit(ci, ce.regions[ci]); err != nil {
			return err
		}
	}
	return nil
}

// WriteFile serialises shards to path via a temp-file rename, so a
// crashed dump never leaves a half-written store behind.
func WriteFile(path string, shards []ShardInput) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = Write(f, shards)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("colstore: writing %s: %w", path, err)
	}
	return os.Rename(tmp, path)
}

// shardStats reports whether records are already in (submit, job-id)
// emission order and the submit range of the shard, and refuses a row
// with a time the format cannot hold: outside what int64 unix nanoseconds
// span, 1678 to 2262, it would read back as a different time.
func shardStats(recs []slurm.Record) (sorted bool, minSub, maxSub int64, err error) {
	sorted = true
	for i := range recs {
		r := &recs[i]
		for _, t := range [...]time.Time{r.Submit, r.Eligible, r.Start, r.End} {
			if !t.IsZero() && (t.Before(minTime) || t.After(maxTime)) {
				return false, 0, 0, fmt.Errorf("colstore: row %d: time %s is outside what the format holds", i, t)
			}
		}
		ns := r.Submit.UnixNano()
		if i == 0 {
			minSub, maxSub = ns, ns
			continue
		}
		if ns < minSub {
			minSub = ns
		}
		if ns > maxSub {
			maxSub = ns
		}
		if sorted && recordCompare(&recs[i-1], r) > 0 {
			sorted = false
		}
	}
	return sorted, minSub, maxSub, nil
}

// minTime and maxTime bound the times a time column holds.
var minTime, maxTime = time.Unix(0, math.MinInt64), time.Unix(0, math.MaxInt64)

// recordCompare is the shard emission order shared with sacct: submit
// time, ties broken by sacct job-id order.
func recordCompare(a, b *slurm.Record) int {
	if !a.Submit.Equal(b.Submit) {
		if a.Submit.Before(b.Submit) {
			return -1
		}
		return 1
	}
	return slurm.CompareJobID(a.ID, b.ID)
}
