package sacct

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"

	"slurmsight/internal/obs"
	"slurmsight/internal/sacct/colstore"
	"slurmsight/internal/slurm"
)

// This file wires the binary columnar shard store (colstore) into Store:
// DumpBinary/OpenBinary persistence, format auto-detection, and the
// lazy-shard plumbing that lets Scan/Query run unchanged over a store
// whose months still live on disk as columns.

// DumpBinary writes the full store in the binary columnar format.
// Lazy shards from a backing binary file are materialised first (a
// re-dump re-encodes them).
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

func (s *Store) shardInputs() ([]colstore.ShardInput, error) {
	months, recs, _, err := s.snapshot(context.Background())
	if err != nil {
		return nil, err
	}
	ins := make([]colstore.ShardInput, len(months))
	for i, m := range months {
		ins[i] = colstore.ShardInput{Year: m.Year, Mon: m.Mon, Records: recs[i]}
	}
	return ins, nil
}

// OpenBinary opens a binary columnar dump as a lazy store: the call
// costs one footer parse, and each month shard decodes on first use.
// A file without the columnar magic returns colstore.ErrNotColstore;
// callers wanting text fallback should use OpenFile instead.
func OpenBinary(path string) (*Store, error) {
	f, err := colstore.Open(path)
	if err != nil {
		return nil, err
	}
	st := NewStore()
	st.bin = f
	for _, sh := range f.Shards() {
		m := Month{Year: sh.Year(), Mon: sh.Mon()}
		if _, dup := st.lazy[m]; dup {
			f.Close()
			return nil, fmt.Errorf("%w: duplicate shard %s", colstore.ErrCorrupt, m)
		}
		st.lazy[m] = sh
	}
	return st, nil
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

// Instrument mirrors the backing columnar file's read counters into reg
// (colstore_* metrics). No-op for text-backed stores or nil registries.
func (s *Store) Instrument(reg *obs.Registry) {
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

// Close releases the backing columnar mapping, if any. Shards already
// materialised stay queryable; shards still lazy become unreadable, so
// close only after the store's consumers are done.
func (s *Store) Close() error {
	if s.bin == nil {
		return nil
	}
	return s.bin.Close()
}

// hasLazy reports whether any month still lives on disk undecoded.
func (s *Store) hasLazy() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.lazy) > 0
}

// shardView resolves one month for a scan. Materialised shards return
// as-is. A lazy shard with a projection (and stored in emission order,
// so the scan's binary search stays valid) decodes just those columns,
// transiently — the store keeps no copy. Otherwise the shard
// materialises fully and is cached for every later scan. The context
// carries the active request span, if any, so first-touch decode cost
// lands on the request that paid it.
func (s *Store) shardView(ctx context.Context, m Month, proj []string) ([]slurm.Record, bool, error) {
	s.mu.RLock()
	shard, ok := s.shards[m]
	sorted := s.sorted[m]
	lz := s.lazy[m]
	s.mu.RUnlock()
	if ok || lz == nil {
		return shard, sorted, nil
	}
	if proj != nil && lz.Sorted() {
		recs, err := lz.DecodeColumnsCtx(ctx, proj)
		return recs, true, err
	}
	s.mu.Lock()
	err := s.materializeLocked(ctx, m)
	shard, sorted = s.shards[m], s.sorted[m]
	s.mu.Unlock()
	return shard, sorted, err
}

// materializeLocked decodes a lazy shard into the in-memory maps. The
// caller holds s.mu. Losing a materialisation race is fine: the winner
// already deleted the lazy entry and this call is a no-op.
func (s *Store) materializeLocked(ctx context.Context, m Month) error {
	sh, ok := s.lazy[m]
	if !ok {
		return nil
	}
	recs, err := sh.DecodeAllCtx(ctx)
	if err != nil {
		return err
	}
	if !sh.Sorted() {
		slices.SortStableFunc(recs, recordCmp)
	}
	s.shards[m] = recs
	s.sorted[m] = true
	if min, max, ok := sh.SubmitRange(); ok {
		s.ranges[m] = shardRange{min: min.UnixNano(), max: max.UnixNano()}
	}
	delete(s.lazy, m)
	return nil
}

// Warm materialises every lazy shard up front, trading startup time
// for uniform in-memory scan latency — the right call for an always-on
// query service, where the first client should not pay the decode.
// Shards decode concurrently over the store's decode pool (see
// SetDecodeWorkers); the warmed store is identical to a sequential
// warm's at every worker count.
func (s *Store) Warm() error { return s.warmMonths(context.Background(), nil) }

// WarmCtx is Warm under a request context: when ctx carries an active
// obs span, each shard decode reports itself under it.
func (s *Store) WarmCtx(ctx context.Context) error { return s.warmMonths(ctx, nil) }
