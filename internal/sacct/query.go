package sacct

import (
	"context"
	"fmt"
	"io"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
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

// overlaps reports whether a month can hold a row of the plan's window:
// its calendar extent first, then the submit extent its rows actually
// span (sealed rows answer from their footer), so a window that misses
// every month's data opens no shard.
func (p *scanPlan) overlaps(mv *month) bool {
	// Compared as times: a bound may lie outside what int64 nanoseconds hold.
	if !p.start.IsZero() && (!mv.m.Next().Start().After(p.start) || p.start.After(time.Unix(0, mv.rng.max))) {
		return false // the month ends, or its last submit falls, before the window opens
	}
	if !p.end.IsZero() && (!mv.m.Start().Before(p.end) || !p.end.After(time.Unix(0, mv.rng.min))) {
		return false // the month begins, or its first submit falls, at or after the window's close
	}
	return true
}

// storeView is what a scan reads: a copy of every populated month, in
// order, and the generation they belong to, captured under one read lock
// — so nothing that lands while the scan runs shows up in it, and the
// generation is a true label for the rows it yields. The copies alias
// store storage; no scan writes through them, so scans share one view.
type storeView struct {
	gen    uint64
	months []month
}

// view returns the store's current view. The first scan after a change
// captures it, and every scan after shares it until the next change drops
// it (bumpLocked), so a scan's capture allocates nothing.
func (s *Store) view() *storeView {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if v := s.views.Load(); v != nil {
		return v
	}
	v := &storeView{gen: s.gen.Load(), months: make([]month, 0, len(s.months))}
	for _, mo := range s.months {
		if mo.rows() == 0 {
			continue
		}
		mv := *mo
		if mv.base != nil && mv.base.Rows() == 0 {
			mv.base = nil
		}
		v.months = append(v.months, mv)
	}
	slices.SortFunc(v.months, func(a, b month) int { return a.m.Compare(b.m) })
	s.views.Store(v) // a racing scan may store its own capture: the same months
	return v
}

// merges reports that some month the plan's window reaches merges parts.
func (v *storeView) merges(p *scanPlan) bool {
	for i := range v.months {
		if mv := &v.months[i]; mv.merges() && p.overlaps(mv) {
			return true
		}
	}
	return false
}

// rows counts the view's rows before any window or filter.
func (v *storeView) rows() (n int) {
	for i := range v.months {
		n += v.months[i].rows()
	}
	return n
}

// window narrows in-memory rows to the plan's submit-time bounds by
// binary search.
func (p *scanPlan) window(shard []slurm.Record) []slurm.Record {
	lo, hi := 0, len(shard)
	if !p.start.IsZero() {
		lo = sort.Search(len(shard), func(i int) bool {
			return !shard[i].Submit.Before(p.start)
		})
	}
	if !p.end.IsZero() {
		hi = lo + sort.Search(len(shard)-lo, func(i int) bool {
			return !shard[lo+i].Submit.Before(p.end)
		})
	}
	return shard[lo:hi]
}

// scanPlan is a validated query, ready to run: the submit window that
// narrows each month, the row tests, and the columns the consumer reads of
// each record.
type scanPlan struct {
	start, end time.Time
	filters    []colstore.Filter
	cols       colstore.ColSet

	inWindow colstore.Filter // a pooled plan's Submit test, reading start and end
}

// plans recycles the plans of windowed and filtered scans with their
// filter storage and window test, so that a scan builds none of them.
var plans = sync.Pool{New: func() any {
	p := new(scanPlan)
	submit, _ := colstore.ColumnsFor("Submit")
	p.inWindow = colstore.Filter{Col: submit, Keep: func(r *slurm.Record) bool {
		return (p.start.IsZero() || !r.Submit.Before(p.start)) && (p.end.IsZero() || r.Submit.Before(p.end))
	}}
	return p
}}

// plan takes q's row test apart into a pooled plan, one filter per field
// the query filters or windows on, each on the column that backs the field
// — which is how a cursor applies them. They go cheapest first: the
// equality filters read one small varint a row and turn most rows away,
// and behind a refusal JobID's four varints and Submit's delta chain are
// stepped over, not decoded. The caller releases the plan when its scan
// has ended.
func (q *Query) plan(st slurm.State, filterState bool, cols colstore.ColSet) *scanPlan {
	p := plans.Get().(*scanPlan)
	p.start, p.end, p.cols = q.Start, q.End, cols
	for _, eq := range [...]struct{ field, want string }{{"User", q.User}, {"Account", q.Account}, {"Partition", q.Partition}} {
		if eq.want != "" {
			f, _ := colstore.Equal(eq.field, eq.want) // all three are dictionary columns
			p.filters = append(p.filters, f)
		}
	}
	if filterState {
		p.filters = append(p.filters, colstore.StateIs(st))
	}
	if !q.IncludeSteps {
		p.filters = append(p.filters, colstore.JobRows())
	}
	if !q.Start.IsZero() || !q.End.IsZero() {
		p.filters = append(p.filters, p.inWindow)
	}
	return p
}

// release returns a plan from plan to the pool, keeping none of its
// filters' values.
func (p *scanPlan) release() {
	clear(p.filters)
	p.filters = p.filters[:0]
	plans.Put(p)
}

// keep applies the row tests to a record that has every field.
func (p *scanPlan) keep(r *slurm.Record) bool {
	for i := range p.filters {
		if !p.filters[i].Keep(r) {
			return false
		}
	}
	return true
}

// mergeKey is what the merge of a month's parts compares.
var mergeKey, _ = colstore.ColumnsFor("Submit", "JobID")

// frozenParts is a scan's cursors over the frozen parts of the month it
// is in — its base shard, then its segments oldest first — each standing
// on its next row. Cursors are built as a month first needs them and
// re-pointed month to month.
type frozenParts struct {
	p     *scanPlan
	cols  colstore.ColSet
	curs  []*colstore.Cursor
	heads []*slurm.Record // nil: that part is done
}

// open points the cursors at mv's frozen parts, each narrowed to the
// plan's submit window, and reads each one's first row.
func (fp *frozenParts) open(ctx context.Context, mv *month) error {
	fp.heads = fp.heads[:0]
	for sh := range mv.frozen {
		if err := fp.add(ctx, sh); err != nil {
			return err
		}
	}
	return nil
}

func (fp *frozenParts) add(ctx context.Context, sh *colstore.Shard) error {
	i := len(fp.heads)
	if i == len(fp.curs) {
		cur := cursors.Get().(*colstore.Cursor)
		cur.Reset(fp.p.filters, fp.cols)
		fp.curs = append(fp.curs, cur)
	}
	cur := fp.curs[i]
	if err := cur.Open(ctx, sh); err != nil {
		return err
	}
	lo, hi, err := sh.SubmitWindow(fp.p.start, fp.p.end)
	if err != nil {
		return err
	}
	if hi-lo < sh.Rows() {
		cur.Seek(lo, hi)
	}
	r, err := cur.Next()
	fp.heads = append(fp.heads, r)
	return err
}

// first returns the part whose row sorts first — the earliest part on a
// tie — or -1 when every part is done.
func (fp *frozenParts) first() int {
	best := -1
	for i, r := range fp.heads {
		if r != nil && (best < 0 || cmpRecords(r, fp.heads[best]) < 0) {
			best = i
		}
	}
	return best
}

// next steps part i to its following row.
func (fp *frozenParts) next(i int) (err error) {
	fp.heads[i], err = fp.curs[i].Next()
	return err
}

// close closes the scan's cursors and returns them for the next scan.
func (fp *frozenParts) close() {
	for _, c := range fp.curs {
		c.Close()
		cursors.Put(c)
	}
}

// cursors recycles part cursors from scan to scan. Reset keeps only a
// cursor's column list: its record starts from zero, as a new cursor's
// does. An idle cursor lasts until the second garbage collection.
var cursors = sync.Pool{New: func() any { return new(colstore.Cursor) }}

// run streams the view's matching records in emission order: month by
// month, a k-way merge of the month's frozen parts and its in-memory rows
// — on a tie the earlier part first, in-memory rows last. It reports the
// months visited and rows yielded, and stops at the first error, which it
// yields.
//
// The whole scan is one fault window: a mapped page that its file no
// longer backs, truncated under the store, ends the scan with
// colstore.ErrCorrupt rather than the process with SIGBUS. A panic in the
// consumer is the consumer's, and goes on up.
func (v *storeView) run(ctx context.Context, p *scanPlan, yield func(*slurm.Record, error) bool) (shards, rows int64) {
	fp := frozenParts{p: p, cols: p.cols}
	if v.merges(p) {
		fp.cols |= mergeKey
	}
	inYield := false
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		fp.close()
		if r := recover(); r != nil {
			err := colstore.AsFault(r)
			if err == nil || inYield {
				panic(r)
			}
			yield(nil, err)
		}
	}()
	emit := func(r *slurm.Record) bool {
		rows++
		inYield = true
		ok := yield(r, nil)
		inYield = false
		return ok
	}
	for i := range v.months {
		mv := &v.months[i]
		if !p.overlaps(mv) {
			continue
		}
		shards++
		mem := p.window(mv.mem)
		if err := fp.open(ctx, mv); err != nil {
			yield(nil, err)
			return shards, rows
		}
		for {
			part := fp.first()
			for len(mem) > 0 && !p.keep(&mem[0]) {
				mem = mem[1:]
			}
			if len(mem) > 0 && (part < 0 || cmpRecords(&mem[0], fp.heads[part]) < 0) {
				if !emit(&mem[0]) {
					return shards, rows
				}
				mem = mem[1:]
				continue
			}
			if part < 0 {
				break
			}
			if !emit(fp.heads[part]) {
				return shards, rows
			}
			if err := fp.next(part); err != nil {
				yield(nil, err)
				return shards, rows
			}
		}
	}
	return shards, rows
}

// Scan streams matching records in emission order without copying them:
// a yielded record is valid only until the next iteration — base-shard and
// segment rows are decoded into one record the scan reuses (TRES maps
// included), and in-memory rows alias store-owned storage — so a consumer
// that retains a record clones it (slurm.Record.Clone) and none may mutate
// through the pointer. An invalid query yields a single terminal error; so
// does a corrupt shard, before the first row of that shard. A Scan
// concurrent with Add/AppendBatch/Ingest is safe and reads the store as it
// stood when the iteration began; use Generation to detect that the answer
// may already be stale.
func (s *Store) Scan(q Query) slurm.RecordSeq {
	return func(yield func(*slurm.Record, error) bool) {
		_, st, filterState, err := q.validate()
		if err != nil {
			yield(nil, err)
			return
		}
		p := q.plan(st, filterState, colstore.AllColumns)
		s.scan(context.Background(), p, yield)
		p.release()
	}
}

// scan captures a view and runs p over it, returning the generation the
// yielded rows belong to. When ctx carries an active obs span, the pass
// reports itself as a "store-scan" child span with shard/row attributes,
// and any first load of a sealed column it triggers reports under it —
// how a serving-plane request decomposes a slow scan.
func (s *Store) scan(ctx context.Context, p *scanPlan, yield func(*slurm.Record, error) bool) uint64 {
	sp := obs.SpanFromContext(ctx).Child("store-scan")
	if sp != nil {
		ctx = obs.ContextWithSpan(ctx, sp)
		yield = spanErrors(sp, yield)
	}
	v := s.view()
	shards, rows := v.run(ctx, p, yield)
	sp.SetAttrInt("shards", shards)
	sp.SetAttrInt("rows", rows)
	sp.End()
	return v.gen
}

// spanErrors notes the error a scan ends on in its span.
func spanErrors(sp *obs.Span, yield func(*slurm.Record, error) bool) func(*slurm.Record, error) bool {
	return func(r *slurm.Record, err error) bool {
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		return yield(r, err)
	}
}

// SnapshotCtx is a full scan (steps included) pinned to one generation:
// it captures every month and the generation under a single read lock, so
// the returned sequence yields exactly the records of the returned
// generation, in Scan order, whatever lands while the caller iterates.
// fields names what the consumer reads of each record (nil for all);
// sealed rows decode only the columns behind them. Like AppendQueryCtx it
// reports a "store-scan" span — the capture and the first load of any
// sealed column in the projection, which is also where a corrupt shard
// fails the call — and yields records valid until the next iteration.
func (s *Store) SnapshotCtx(ctx context.Context, fields []string) (uint64, slurm.RecordSeq, error) {
	cols := colstore.AllColumns
	if fields != nil {
		var err error
		if cols, err = colstore.ColumnsFor(fields...); err != nil {
			return 0, nil, fmt.Errorf("sacct: %w", err)
		}
	}
	p := &scanPlan{cols: cols}
	sp := obs.SpanFromContext(ctx).Child("store-scan")
	if sp != nil {
		ctx = obs.ContextWithSpan(ctx, sp)
		defer sp.End()
	}
	v := s.view()
	sp.SetAttrInt("shards", int64(len(v.months)))
	sp.SetAttrInt("rows", int64(v.rows()))
	if v.merges(p) {
		cols |= mergeKey
	}
	for i := range v.months {
		for sh := range v.months[i].frozen {
			if err := sh.Load(ctx, cols); err != nil {
				sp.SetAttr("error", err.Error())
				return 0, nil, err
			}
		}
	}
	return v.gen, func(yield func(*slurm.Record, error) bool) {
		v.run(context.Background(), p, yield)
	}, nil
}

// Select returns matching records in scan order as owned copies. It is a
// collect-wrapper over Scan for callers that need a slice.
func (s *Store) Select(q Query) ([]slurm.Record, error) {
	var out []slurm.Record
	for r, err := range s.Scan(q) {
		if err != nil {
			return nil, err
		}
		out = append(out, r.Clone())
	}
	return out, nil
}

// Write emits matching rows as pipe-separated text with a header, the
// format the workflow's "Obtain data" stage stores on disk. Sealed rows
// decode only the selected (plus filtered) columns.
func (s *Store) Write(w io.Writer, q Query) (int, error) {
	return s.WriteN(w, q, 0)
}

// WriteN is Write with a row bound: limit > 0 stops the scan after that
// many matching rows (the header still always renders), so a serving
// layer can cap response sizes without scanning past the cut. limit ≤ 0
// writes everything.
func (s *Store) WriteN(w io.Writer, q Query, limit int) (int, error) {
	tw := textWriter{w: w}
	n, _, err := s.writeText(context.Background(), &tw, &q, limit)
	if err != nil {
		return n, err
	}
	return n, tw.flush()
}

// AppendQueryCtx is WriteN into memory under a request context: it
// appends the header and the matching rows to dst and returns the
// extended buffer, the row count, and the generation those rows belong
// to — they come from one capture of the store, so the label holds
// whatever lands during the scan. When ctx carries an active obs span, the
// scan and any first column load it triggers report under it as a
// "store-scan" span.
func (s *Store) AppendQueryCtx(ctx context.Context, dst []byte, q Query, limit int) ([]byte, int, uint64, error) {
	tw := textWriter{buf: dst}
	n, gen, err := s.writeText(ctx, &tw, &q, limit)
	return tw.buf, n, gen, err
}

func (s *Store) writeText(ctx context.Context, tw *textWriter, q *Query, limit int) (n int, gen uint64, err error) {
	fields, st, filterState, err := q.validate()
	if err != nil {
		return 0, 0, err
	}
	if err := tw.header(fields); err != nil {
		return 0, 0, err
	}
	cols, err := colstore.ColumnsFor(fields...)
	if err != nil {
		cols = colstore.AllColumns // a field no column backs: the encoder reads what it reads
	}
	p := q.plan(st, filterState, cols)
	gen = s.scan(ctx, p, func(r *slurm.Record, rerr error) bool {
		if err = rerr; err == nil {
			n++
			err = tw.record(r)
		}
		return err == nil && (limit <= 0 || n < limit)
	})
	p.release()
	return n, gen, err
}

// textWriter is the store's text emit path, shared by Write, Dump and
// AppendQueryCtx: one slurm.Encoder appending rows into one buffer. With a
// sink, the buffer is handed to w and reused each time it passes flushAt;
// without one it just grows and is the result. Either way it starts from
// what the caller gave — nothing for Write, the serving plane's reused
// render buffer for AppendQueryCtx — and grows by append, so a short
// answer costs what it holds (a /query miss of a few rows must not pay
// for a bulk dump's buffer) and a long one stops allocating once the
// buffer has grown past flushAt.
type textWriter struct {
	w   io.Writer // nil: keep everything in buf
	enc *slurm.Encoder
	buf []byte
}

const flushAt = 1 << 16

// header resolves fields and buffers the header line.
func (t *textWriter) header(fields []string) (err error) {
	if t.enc, err = slurm.NewEncoder(fields); err != nil {
		return err
	}
	t.buf = append(t.enc.AppendHeader(t.buf), '\n')
	return nil
}

func (t *textWriter) record(r *slurm.Record) error {
	t.buf = append(t.enc.AppendRecord(t.buf, r), '\n')
	if t.w != nil && len(t.buf) > flushAt {
		return t.flush()
	}
	return nil
}

func (t *textWriter) flush() error {
	_, err := t.w.Write(t.buf)
	t.buf = t.buf[:0]
	return err
}
