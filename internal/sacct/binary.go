package sacct

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"slices"

	"slurmsight/internal/obs"
	"slurmsight/internal/sacct/colstore"
	"slurmsight/internal/slurm"
)

// This file wires the binary columnar shard store (colstore) into Store:
// DumpBinary/OpenBinary persistence and format auto-detection. Reading
// the sealed shards is the scan's business (query.go).

// DumpBinary writes the full store in the binary columnar format. A
// month that is one base shard or one segment and nothing else has its
// column regions copied as they are, once they verify; any other month is
// encoded from its scan.
func (s *Store) DumpBinary(w io.Writer) error {
	shards, err := s.shardInputs()
	if err != nil {
		return err
	}
	return colstore.Write(w, shards)
}

// DumpBinaryFile writes the binary columnar format to path atomically
// (temp file + rename).
func (s *Store) DumpBinaryFile(path string) error {
	shards, err := s.shardInputs()
	if err != nil {
		return err
	}
	return colstore.WriteFile(path, shards)
}

// shardInputs is every month, in order, as the writer takes it: the
// month's one frozen shard where that is all it holds, the in-memory
// slice itself where that is, else the month's scan collected into a
// slice of its own.
func (s *Store) shardInputs() ([]colstore.ShardInput, error) {
	v := s.view(&Query{IncludeSteps: true})
	ins := make([]colstore.ShardInput, len(v.months))
	for i, mv := range v.months {
		ins[i] = colstore.ShardInput{Year: mv.m.Year, Mon: mv.m.Mon, Records: mv.mem}
		switch {
		case mv.merges():
			recs, err := collectMonth(mv)
			if err != nil {
				return nil, err
			}
			ins[i].Records = recs
		case mv.base != nil:
			ins[i].Shard = mv.base
		case len(mv.segs) == 1:
			ins[i].Shard = mv.segs[0]
		}
	}
	return ins, nil
}

// OpenBinary opens a binary columnar dump: the call costs one footer
// parse, and each month's rows stay on disk as its base shard, read
// column by column as scans project them. The exception is a shard the
// footer marks unsorted — a file the store did not write, since the store
// dumps every month in scan order — which is read whole, here, sorted, and
// held as in-memory rows, so that every shard a scan meets is in order. A
// file without the columnar magic returns colstore.ErrNotColstore; callers
// wanting text fallback should use OpenFile instead.
func OpenBinary(path string) (*Store, error) {
	f, err := colstore.Open(path)
	if err != nil {
		return nil, err
	}
	return openFile(f)
}

// OpenBinaryBytes is OpenBinary over a columnar file held in memory — a
// columnar /ingest body — which the store aliases and the caller must not
// change while the store is in use.
func OpenBinaryBytes(data []byte) (*Store, error) {
	f, err := colstore.OpenBytes(data)
	if err != nil {
		return nil, err
	}
	return openFile(f)
}

func openFile(f *colstore.File) (*Store, error) {
	st := NewStore()
	st.bin = f
	for _, sh := range f.Shards() {
		m := Month{Year: sh.Year(), Mon: sh.Mon()}
		if _, dup := st.months[m]; dup {
			f.Close()
			return nil, fmt.Errorf("%w: duplicate shard %s", colstore.ErrCorrupt, m)
		}
		mo := st.monthLocked(m)
		if lo, hi, ok := sh.SubmitRange(); ok {
			mo.rng = shardRange{min: lo.UnixNano(), max: hi.UnixNano()}
		}
		if sh.Sorted() {
			mo.base = sh
			continue
		}
		recs, err := readShard(sh)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("sacct: loading unsorted shard %s: %w", m, err)
		}
		slices.SortStableFunc(recs, recordCmp)
		mo.mem = recs
	}
	return st, nil
}

// readShard reads every row of a shard into a slice of owned copies.
func readShard(sh *colstore.Shard) (_ []slurm.Record, err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer catchFault(&err)
	cur := colstore.NewCursor(nil, colstore.AllColumns)
	defer cur.Close()
	if err := cur.Open(context.Background(), sh); err != nil {
		return nil, err
	}
	recs := make([]slurm.Record, 0, sh.Rows())
	for {
		r, err := cur.Next()
		if r == nil {
			return recs, err
		}
		recs = append(recs, r.Clone())
	}
}

// OpenFile opens a store dump in either format: binary columnar files
// load lazily via OpenBinary, anything else goes through the text
// loader (malformed returned as from LoadFile, always 0 for binary).
func OpenFile(path string) (*Store, int, error) {
	st, err := OpenBinary(path)
	if err == nil {
		return st, 0, nil
	}
	if errors.Is(err, colstore.ErrNotColstore) {
		return LoadFile(path)
	}
	return nil, 0, err
}

// Binary reports whether the store is backed by a columnar file.
func (s *Store) Binary() bool { return s.bin != nil }

// Instrument publishes the store into reg: the live tail's sacct_*
// metrics (see instrumentTail) and, for a store opened from a columnar
// file, that file's read counters (colstore_* metrics). No-op for a nil
// registry.
func (s *Store) Instrument(reg *obs.Registry) {
	s.instrumentTail(reg)
	if s.bin != nil {
		s.bin.Instrument(reg)
	}
}

// ColstoreStats snapshots the backing file's read counters; ok is false
// for text-backed stores.
func (s *Store) ColstoreStats() (colstore.Stats, bool) {
	if s.bin == nil {
		return colstore.Stats{}, false
	}
	return s.bin.Stats(), true
}

// Close releases the backing columnar mapping, if any. In-memory rows
// and records cloned out of a scan stay usable; sealed rows become
// unreadable, so close only after the store's consumers are done.
func (s *Store) Close() error {
	if s.bin == nil {
		return nil
	}
	return s.bin.Close()
}

// Warm reads every base shard and segment once, start to end —
// checksums verified, dictionaries loaded, seek indexes built — so that
// damage anywhere in the file is an error at startup and no request pays
// a first touch. It materialises nothing: the rows stay on disk or in
// their segments, and a warm store holds a few bytes a row.
func (s *Store) Warm() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, m := range s.monthsLocked() {
		for sh := range s.months[m].frozen {
			if err := sh.Load(context.Background(), colstore.AllColumns); err != nil {
				return fmt.Errorf("sacct: shard %s: %w", m, err)
			}
		}
	}
	return nil
}
