package sacct

import (
	"context"
	"fmt"
	"io"
	"runtime/debug"
	"slices"
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

// overlaps reports whether a month can hold a row of the query's window:
// its calendar extent first, then the submit extent its rows actually
// span (sealed rows answer from their footer), so a window that misses
// every month's data opens no shard.
func (q *Query) overlaps(m Month, rg shardRange) bool {
	// Compared as times: a bound may lie outside what int64 nanoseconds hold.
	if !q.Start.IsZero() && (!m.Next().Start().After(q.Start) || q.Start.After(time.Unix(0, rg.max))) {
		return false // the month ends, or its last submit falls, before the window opens
	}
	if !q.End.IsZero() && (!m.Start().Before(q.End) || !q.End.After(time.Unix(0, rg.min))) {
		return false // the month begins, or its first submit falls, at or after the window's close
	}
	return true
}

// storeView is what one scan reads: a copy of every month the query's
// window can reach, in order, and the generation they belong to, captured
// under one read lock — so nothing that lands while the scan runs shows up
// in it, and the generation is a true label for the rows it yields. The
// copies alias store storage; a scan does not write through them.
type storeView struct {
	gen    uint64
	months []month
	merges bool // some month merges parts
}

func (s *Store) view(q *Query) storeView {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v := storeView{gen: s.gen.Load(), months: make([]month, 0, len(s.months))}
	for _, mo := range s.months {
		if mo.rows() == 0 || !q.overlaps(mo.m, mo.rng) {
			continue
		}
		mv := *mo
		if mv.base != nil && mv.base.Rows() == 0 {
			mv.base = nil
		}
		v.merges = v.merges || mv.merges()
		v.months = append(v.months, mv)
	}
	slices.SortFunc(v.months, func(a, b month) int { return a.m.Compare(b.m) })
	return v
}

// rows counts the view's rows before any window or filter.
func (v *storeView) rows() (n int) {
	for i := range v.months {
		n += v.months[i].rows()
	}
	return n
}

// window narrows in-memory rows to the query's submit-time bounds by
// binary search.
func (q *Query) window(shard []slurm.Record) []slurm.Record {
	lo, hi := 0, len(shard)
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
	return shard[lo:hi]
}

// scanPlan is a validated query, ready to run: the window that narrows
// each month, the row tests, and the columns the consumer reads of each
// record.
type scanPlan struct {
	q       *Query
	filters []colstore.Filter
	cols    colstore.ColSet
}

// plan takes q's row test apart, one filter per field the query filters
// or windows on, each on the column that backs the field — which is how a
// cursor applies them. They go cheapest first: the equality filters read
// one small varint a row and turn most rows away, and behind a refusal
// JobID's four varints and Submit's delta chain are stepped over, not
// decoded.
func (q *Query) plan(st slurm.State, filterState bool, cols colstore.ColSet) *scanPlan {
	p := &scanPlan{q: q, cols: cols}
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
		submit, _ := colstore.ColumnsFor("Submit")
		p.filters = append(p.filters, colstore.Filter{Col: submit, Keep: func(r *slurm.Record) bool {
			return (q.Start.IsZero() || !r.Submit.Before(q.Start)) && (q.End.IsZero() || r.Submit.Before(q.End))
		}})
	}
	return p
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
		fp.curs = append(fp.curs, colstore.NewCursor(fp.p.filters, fp.cols))
	}
	cur := fp.curs[i]
	if err := cur.Open(ctx, sh); err != nil {
		return err
	}
	lo, hi, err := sh.SubmitWindow(fp.p.q.Start, fp.p.q.End)
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

func (fp *frozenParts) close() {
	for _, c := range fp.curs {
		c.Close()
	}
}

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
	if v.merges {
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
		shards++
		mem := p.q.window(mv.mem)
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
		s.scan(context.Background(), q.plan(st, filterState, colstore.AllColumns), yield)
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
	v := s.view(p.q)
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
	p := &scanPlan{q: &Query{IncludeSteps: true}, cols: cols}
	sp := obs.SpanFromContext(ctx).Child("store-scan")
	if sp != nil {
		ctx = obs.ContextWithSpan(ctx, sp)
		defer sp.End()
	}
	v := s.view(p.q)
	sp.SetAttrInt("shards", int64(len(v.months)))
	sp.SetAttrInt("rows", int64(v.rows()))
	if v.merges {
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
	gen = s.scan(ctx, q.plan(st, filterState, cols), func(r *slurm.Record, rerr error) bool {
		if err = rerr; err == nil {
			n++
			err = tw.record(r)
		}
		return err == nil && (limit <= 0 || n < limit)
	})
	return n, gen, err
}

// textWriter is the store's text emit path, shared by Write, Dump and
// AppendQueryCtx: one slurm.Encoder appending rows into one buffer. With a
// sink, the buffer is handed to w and reused each time it passes flushAt;
// without one it just grows and is the result. Either way it starts from
// what the caller gave (nothing, for Write) and grows by append, so a
// short answer costs what it holds (a /query miss of a few rows must not
// pay for a bulk dump's buffer) and a long one stops allocating once the
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
