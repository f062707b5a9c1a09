package colstore

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
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
// in the order given; sacct passes them chronologically.
func Write(w io.Writer, shards []ShardInput) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if err := encode(bw.Write, shards); err != nil {
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
func Seal(year int, mon time.Month, recs []slurm.Record) (*Shard, error) {
	for i := range recs {
		r := &recs[i]
		for _, t := range [...]time.Time{r.Submit, r.Eligible, r.Start, r.End} {
			if !t.IsZero() && !time.Unix(0, t.UnixNano()).Equal(t) {
				return nil, fmt.Errorf("colstore: row %d: time %s is outside what the format holds", i, t)
			}
		}
	}
	// Encoded into a scratch slice sized for the usual row, so that it
	// seldom grows, then copied once into a slice of its own size.
	data := make([]byte, 0, 16<<10+256*len(recs))
	if err := encode(func(b []byte) (int, error) {
		data = append(data, b...)
		return len(b), nil
	}, []ShardInput{{Year: year, Mon: mon, Records: recs}}); err != nil {
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

// encode emits the file, piece by piece, to write.
func encode(write func([]byte) (int, error), shards []ShardInput) error {
	header := make([]byte, 0, headerLen)
	header = append(header, headerMagic...)
	header = binary.LittleEndian.AppendUint16(header, Version)
	header = binary.LittleEndian.AppendUint16(header, 0) // reserved
	if _, err := write(header); err != nil {
		return err
	}
	offset := uint64(headerLen)

	enc := &colEncoder{dict: make(map[string]uint64)}
	var region []byte
	metas := make([]shardMeta, 0, len(shards))
	for _, in := range shards {
		meta := shardMeta{
			year: in.Year,
			mon:  in.Mon,
			rows: len(in.Records),
			cols: make([]columnMeta, 0, len(columns)),
		}
		meta.sorted, meta.minSub, meta.maxSub = shardStats(in.Records)
		for ci := range columns {
			col := &columns[ci]
			enc.reset()
			for ri := range in.Records {
				col.enc(enc, &in.Records[ri])
			}
			region = enc.region(col.kind, region)
			meta.cols = append(meta.cols, columnMeta{
				name:   col.name,
				kind:   col.kind,
				offset: offset,
				length: uint64(len(region)),
				crc:    checksum(region),
			})
			if _, err := write(region); err != nil {
				return err
			}
			offset += uint64(len(region))
		}
		metas = append(metas, meta)
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
// emission order and the submit range of the shard.
func shardStats(recs []slurm.Record) (sorted bool, minSub, maxSub int64) {
	sorted = true
	for i := range recs {
		ns := recs[i].Submit.UnixNano()
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
		if sorted && recordCompare(&recs[i-1], &recs[i]) > 0 {
			sorted = false
		}
	}
	return sorted, minSub, maxSub
}

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
