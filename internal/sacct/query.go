package sacct

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"slurmsight/internal/obs"
	"slurmsight/internal/sacct/colstore"
	"slurmsight/internal/slurm"
)

// Query selects accounting rows the way the workflow's sacct invocation
// does: a field list, a submit-time window, and optional filters.
type Query struct {
	// Fields is the output column selection; empty means the full curated
	// selection.
	Fields []string

	// Start (inclusive) and End (exclusive) bound the submission time.
	// Zero values leave that side unbounded.
	Start, End time.Time

	// IncludeSteps keeps step records; when false only job-level rows are
	// returned (sacct -X).
	IncludeSteps bool

	// Optional filters; empty matches everything.
	User      string
	Account   string
	Partition string
	State     string // canonical state spelling
}

// validate resolves the field list and state filter.
func (q *Query) validate() ([]string, slurm.State, bool, error) {
	fields := q.Fields
	if len(fields) == 0 {
		fields = slurm.SelectedNames()
	}
	for _, f := range fields {
		if _, ok := slurm.FieldByName(f); !ok {
			return nil, 0, false, fmt.Errorf("sacct: unknown field %q", f)
		}
	}
	if !q.Start.IsZero() && !q.End.IsZero() && !q.Start.Before(q.End) {
		return nil, 0, false, fmt.Errorf("sacct: query window is empty")
	}
	var st slurm.State
	filterState := false
	if q.State != "" {
		parsed, err := slurm.ParseState(q.State)
		if err != nil {
			return nil, 0, false, err
		}
		st, filterState = parsed, true
	}
	return fields, st, filterState, nil
}

func (q *Query) matches(r *slurm.Record, st slurm.State, filterState bool) bool {
	if !q.IncludeSteps && r.IsStep() {
		return false
	}
	if !q.Start.IsZero() && r.Submit.Before(q.Start) {
		return false
	}
	if !q.End.IsZero() && !r.Submit.Before(q.End) {
		return false
	}
	if q.User != "" && r.User != q.User {
		return false
	}
	if q.Account != "" && r.Account != q.Account {
		return false
	}
	if q.Partition != "" && r.Partition != q.Partition {
		return false
	}
	if filterState && r.State != st {
		return false
	}
	return true
}

// monthsIn returns the store shards overlapping the query window.
func (s *Store) monthsIn(q *Query) []Month {
	var out []Month
	for _, m := range s.Months() {
		if !q.Start.IsZero() && !m.Next().Start().After(q.Start) {
			continue // shard ends at or before the window start
		}
		if !q.End.IsZero() && !m.Start().Before(q.End) {
			continue // shard begins at or after the window end
		}
		out = append(out, m)
	}
	return out
}

// shardOverlaps reports whether a shard's actual submit extent — not
// its calendar month — intersects the query window. Lazy shards answer
// from their footer min/max without decoding a single column, so a
// window that misses every shard's data costs O(months), never a
// materialisation. An unknown extent errs toward scanning.
func (s *Store) shardOverlaps(m Month, q *Query) bool {
	if q.Start.IsZero() && q.End.IsZero() {
		return true
	}
	s.mu.RLock()
	rg, ok := s.ranges[m]
	if !ok {
		if lz := s.lazy[m]; lz != nil {
			min, max, hasRows := lz.SubmitRange()
			if !hasRows {
				s.mu.RUnlock()
				return false // footer says the shard is empty
			}
			rg, ok = shardRange{min: min.UnixNano(), max: max.UnixNano()}, true
		}
	}
	s.mu.RUnlock()
	if !ok {
		return true
	}
	if !q.Start.IsZero() && q.Start.UnixNano() > rg.max {
		return false // window opens after the last submit
	}
	if !q.End.IsZero() && q.End.UnixNano() <= rg.min {
		return false // window closes at or before the first submit
	}
	return true
}

// window narrows a shard to the query's submit-time bounds. Sorted
// shards (the steady state after Finalize) are binary-searched; a shard
// still awaiting Finalize falls back to its full extent, since matches
// re-checks the bounds per record either way.
func (s *Store) window(shard []slurm.Record, sorted bool, q *Query) (lo, hi int) {
	lo, hi = 0, len(shard)
	if !sorted {
		return lo, hi
	}
	if !q.Start.IsZero() {
		lo = sort.Search(len(shard), func(i int) bool {
			return !shard[i].Submit.Before(q.Start)
		})
	}
	if !q.End.IsZero() {
		hi = lo + sort.Search(len(shard)-lo, func(i int) bool {
			return !shard[lo+i].Submit.Before(q.End)
		})
	}
	return lo, hi
}

// Scan streams matching records in emission order without copying them:
// yielded pointers alias store-owned shard storage, so consumers that
// retain a record must copy it and must not mutate through the pointer.
// On a binary-backed store a full Scan materialises each touched shard
// once and caches it. An invalid query yields a single terminal error
// (including a decode error from a corrupt binary shard). A Scan
// concurrent with Add/Finalize is safe and sees a consistent
// per-shard view — each shard is either pre- or post-mutation; use
// Generation to detect that the answer may already be stale.
func (s *Store) Scan(q Query) slurm.RecordSeq {
	return s.scan(context.Background(), q, nil)
}

// ScanCtx is Scan under a request context: when ctx carries an active
// obs span, the pass reports itself as a "store-scan" child span with
// shard/row attributes, and any lazy shard decode it triggers reports
// under it — how a serving-plane request decomposes a slow scan.
func (s *Store) ScanCtx(ctx context.Context, q Query) slurm.RecordSeq {
	return s.scan(ctx, q, nil)
}

// scan is Scan with an optional column projection: when proj is
// non-nil, lazy binary shards decode only those columns (transiently,
// uncached) instead of materialising. Projected records have every
// unprojected field zero, so proj must cover the query's filter fields —
// projection for a Write field selection is computed by Query.columns.
//
// When the store's decode pool allows more than one worker and several
// lazy shards are in play, shard decodes run concurrently: a full scan
// parallel-materialises the overlapping lazy months up front, and a
// projected scan decodes shards up to a pool's width ahead of the
// consumer. Both stream months in order, so the yielded sequence is
// identical to the sequential path's at every worker count — including
// where a corrupt shard's error surfaces.
func (s *Store) scan(ctx context.Context, q Query, proj []string) slurm.RecordSeq {
	return func(yield func(*slurm.Record, error) bool) {
		sp := obs.SpanFromContext(ctx).Child("store-scan")
		var shards, rows int64
		if sp != nil {
			ctx = obs.ContextWithSpan(ctx, sp)
			defer func() {
				sp.SetAttrInt("shards", shards)
				sp.SetAttrInt("rows", rows)
				sp.End()
			}()
		}
		_, st, filterState, err := q.validate()
		if err != nil {
			yield(nil, err)
			return
		}
		var months []Month
		for _, m := range s.monthsIn(&q) {
			if s.shardOverlaps(m, &q) {
				months = append(months, m)
			}
		}
		// stop distinguishes an early consumer stop from shard
		// exhaustion across both emit paths.
		stop := false
		emit := func(shard []slurm.Record, sorted bool) bool {
			shards++
			lo, hi := s.window(shard, sorted, &q)
			for i := lo; i < hi; i++ {
				if !q.matches(&shard[i], st, filterState) {
					continue
				}
				rows++
				if !yield(&shard[i], nil) {
					stop = true
					return false
				}
			}
			return true
		}
		if workers := s.DecodeWorkers(); workers > 1 && len(months) > 1 && s.hasLazy() {
			if proj == nil {
				// Parallel-materialise the lazy overlapping months up
				// front. A decode error is deliberately dropped here:
				// the failing shard stays lazy, and the in-order loop
				// below re-surfaces the error at exactly the shard the
				// sequential path would have.
				_ = s.warmMonths(ctx, s.lazyAmong(months))
			} else {
				// Ordered prefetch: transient projected decodes run up
				// to a pool's width ahead of the consumer.
				s.prefetchViews(ctx, months, proj, workers, func(v shardViewResult) bool {
					if v.err != nil {
						sp.SetAttr("error", v.err.Error())
						yield(nil, v.err)
						stop = true
						return false
					}
					return emit(v.recs, v.sorted)
				})
				return
			}
		}
		for _, m := range months {
			if stop {
				return
			}
			shard, sorted, err := s.shardView(ctx, m, proj)
			if err != nil {
				sp.SetAttr("error", err.Error())
				yield(nil, err)
				return
			}
			if !emit(shard, sorted) {
				return
			}
		}
	}
}

// SnapshotCtx is a full scan (steps included) pinned to one generation:
// it materialises any lazy shards, then captures every shard and the
// generation under a single read lock, so the returned sequence yields
// exactly the records of the returned generation, in Scan order, whatever
// lands while the caller iterates. Like ScanCtx it reports a "store-scan"
// span (the capture and any shard decode it triggers) and yields pointers
// into store-owned storage.
func (s *Store) SnapshotCtx(ctx context.Context) (uint64, slurm.RecordSeq, error) {
	sp := obs.SpanFromContext(ctx).Child("store-scan")
	if sp != nil {
		ctx = obs.ContextWithSpan(ctx, sp)
		defer sp.End()
	}
	_, shards, gen, err := s.snapshot(ctx)
	if err != nil {
		sp.SetAttr("error", err.Error())
		return 0, nil, err
	}
	rows := 0
	for _, shard := range shards {
		rows += len(shard)
	}
	sp.SetAttrInt("shards", int64(len(shards)))
	sp.SetAttrInt("rows", int64(rows))
	return gen, func(yield func(*slurm.Record, error) bool) {
		for _, shard := range shards {
			for i := range shard {
				if !yield(&shard[i], nil) {
					return
				}
			}
		}
	}, nil
}

// lazyAmong filters months down to those still lazy on disk.
func (s *Store) lazyAmong(months []Month) []Month {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Month, 0, len(months))
	for _, m := range months {
		if _, ok := s.lazy[m]; ok {
			out = append(out, m)
		}
	}
	return out
}

// Select returns matching records (copies) in shard order. It is a
// collect-wrapper over Scan for callers that need an owned slice.
func (s *Store) Select(q Query) ([]slurm.Record, error) {
	var out []slurm.Record
	for r, err := range s.Scan(q) {
		if err != nil {
			return nil, err
		}
		out = append(out, *r)
	}
	return out, nil
}

// columns maps the resolved field selection plus every field the query
// filters or windows on to the colstore columns a projected scan must
// decode. A nil result means "no useful projection" (full selection).
func (q *Query) columns(fields []string) []string {
	if len(q.Fields) == 0 {
		return nil // full curated selection — every column is needed
	}
	need := make([]string, 0, len(fields)+6)
	need = append(need, fields...)
	if !q.IncludeSteps {
		need = append(need, "JobID") // step detection
	}
	if !q.Start.IsZero() || !q.End.IsZero() {
		need = append(need, "Submit") // window checks + binary search
	}
	if q.User != "" {
		need = append(need, "User")
	}
	if q.Account != "" {
		need = append(need, "Account")
	}
	if q.Partition != "" {
		need = append(need, "Partition")
	}
	if q.State != "" {
		need = append(need, "State")
	}
	cols, err := colstore.ColumnsFor(need)
	if err != nil {
		return nil // unknown field: let validate report it on the scan
	}
	return cols
}

// Write emits matching rows as pipe-separated text with a header, the
// format the workflow's "Obtain data" stage stores on disk. On a
// binary-backed store with an explicit field selection, only the
// selected (plus filtered) columns are decoded.
func (s *Store) Write(w io.Writer, q Query) (int, error) {
	return s.WriteNCtx(context.Background(), w, q, 0)
}

// WriteN is Write with a row bound: limit > 0 stops the scan after that
// many matching rows (the header still always renders), so a serving
// layer can cap response sizes without scanning past the cut. limit ≤ 0
// writes everything.
func (s *Store) WriteN(w io.Writer, q Query, limit int) (int, error) {
	return s.WriteNCtx(context.Background(), w, q, limit)
}

// WriteNCtx is WriteN under a request context, reporting the underlying
// scan (and any shard decode it triggers) as spans per ScanCtx.
func (s *Store) WriteNCtx(ctx context.Context, w io.Writer, q Query, limit int) (int, error) {
	fields, _, _, err := q.validate()
	if err != nil {
		return 0, err
	}
	var proj []string
	if s.hasLazy() {
		proj = q.columns(fields)
	}
	tw, err := newTextWriter(w, fields)
	if err != nil {
		return 0, err
	}
	n := 0
	for r, err := range s.scan(ctx, q, proj) {
		if err != nil {
			return n, err
		}
		n++
		if err := tw.record(r); err != nil {
			return n, err
		}
		if limit > 0 && n >= limit {
			break
		}
	}
	return n, tw.flush()
}

// textWriter is the store's text emit path, shared by Write and Dump:
// one slurm.Encoder appending rows into one buffer that is handed to w
// and reused each time it passes flushAt. The buffer starts empty and
// grows by append, so a short answer costs what it holds (a /query miss
// of a few rows must not pay for a bulk dump's buffer) and a long one
// stops allocating once the buffer has grown past flushAt.
type textWriter struct {
	w   io.Writer
	enc *slurm.Encoder
	buf []byte
}

const flushAt = 1 << 16

// newTextWriter resolves fields and buffers the header line.
func newTextWriter(w io.Writer, fields []string) (*textWriter, error) {
	enc, err := slurm.NewEncoder(fields)
	if err != nil {
		return nil, err
	}
	return &textWriter{w: w, enc: enc, buf: append(enc.AppendHeader(nil), '\n')}, nil
}

func (t *textWriter) record(r *slurm.Record) error {
	t.buf = append(t.enc.AppendRecord(t.buf, r), '\n')
	if len(t.buf) > flushAt {
		return t.flush()
	}
	return nil
}

func (t *textWriter) flush() error {
	_, err := t.w.Write(t.buf)
	t.buf = t.buf[:0]
	return err
}
