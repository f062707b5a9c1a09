// Package sacct is the simulated Slurm accounting database: it stores the
// job and step records produced by the scheduler simulator, serves
// sacct-style field-selectable queries as pipe-separated text, persists and
// reloads dumps, and implements the workflow's "Obtain data" stage —
// month-sharded concurrent retrieval with a cache directory, replacing the
// paper's sacct + GNU Parallel combination.
//
// Stores persist in two formats: the pipe-separated text dump
// (Dump/Load, the sacct-compatible interchange form) and the binary
// columnar shard store (DumpBinary/OpenBinary, see the colstore
// subpackage) whose reload is O(open + footer) and whose scans read only
// the columns a query projects.
package sacct

import (
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"slurmsight/internal/obs"
	"slurmsight/internal/sacct/colstore"
	"slurmsight/internal/sched"
	"slurmsight/internal/slurm"
)

// Month identifies one calendar shard.
type Month struct {
	Year int
	Mon  time.Month
}

// MonthOf returns the shard a timestamp belongs to.
func MonthOf(t time.Time) Month { return Month{Year: t.Year(), Mon: t.Month()} }

// String renders "2024-03".
func (m Month) String() string { return fmt.Sprintf("%04d-%02d", m.Year, int(m.Mon)) }

// Start returns the first instant of the month (UTC).
func (m Month) Start() time.Time {
	return time.Date(m.Year, m.Mon, 1, 0, 0, 0, 0, time.UTC)
}

// Next returns the following month.
func (m Month) Next() Month {
	t := m.Start().AddDate(0, 1, 0)
	return MonthOf(t)
}

// Before orders months chronologically.
func (m Month) Before(o Month) bool { return m.Compare(o) < 0 }

// Compare orders months chronologically for the slices sort helpers.
func (m Month) Compare(o Month) int {
	if m.Year != o.Year {
		return m.Year - o.Year
	}
	return int(m.Mon) - int(o.Mon)
}

// ParseMonth parses "2024-03".
func ParseMonth(s string) (Month, error) {
	t, err := time.Parse("2006-01", strings.TrimSpace(s))
	if err != nil {
		return Month{}, fmt.Errorf("sacct: bad month %q", s)
	}
	return MonthOf(t), nil
}

// Store is an accounting database sharded by submission month. A month
// (see month) is three parts, any of which may be empty: its base shard,
// the month's shard of the columnar file the store was opened from, which
// stays on disk as mapped columns; segments, in-memory one-shard columnar
// files that Ingest builds and AppendBatch seals its rows into (oldest
// first); and an in-memory []Record of what AppendBatch — the one way in
// for rows, which Add and Load use — landed and has not sealed, always in
// scan order. The base shard and segments are read through
// colstore.Cursors. A scan merges the parts — on a key tie the base shard
// first, then segments oldest first, then the in-memory rows, which is
// where a stable sort of the rows in arrival order puts them — so a store
// reads exactly like that stable sort of its rows. It holds only rows its
// columnar format holds (colstore.Holds, checked by AppendBatch), so every
// row can seal: when a call returns, only the newest month holds Records,
// fewer than sealRows.
//
// Queries, AppendBatch and Ingest may run concurrently: mutators never
// write through storage a reader could be holding (rows that sort before a
// month's last row are merged with it into a fresh slice, rows that do not
// are appended past every captured length, a seal starts the month's rows
// afresh, a segment joins past every captured length, and a fold swaps in
// a fresh segment list), base shards and
// segments never change, and a scan reads one copy of every month it
// visits, taken under one lock together with the generation it belongs to.
type Store struct {
	mu     sync.RWMutex
	months map[Month]*month
	bin    *colstore.File // backing columnar file; nil for text stores

	limits       sealLimits
	seals, folds *obs.Counter // nil until Instrument

	gen   atomic.Uint64             // bumped on every successful logical mutation
	views atomic.Pointer[storeView] // the months scans share; nil after a change
}

// month is one month of a store, every part of it. A scan reads a copy
// taken under the store's read lock; the store changes a month's fields
// only under its write lock, and never the storage a copy points at.
type month struct {
	m    Month
	base *colstore.Shard   // the month's shard of the backing file, or nil
	segs []*colstore.Shard // oldest first
	mem  []slurm.Record    // in recordCmp order
	rng  shardRange        // submit extent, every part included
}

// frozen yields the month's frozen parts in tie order: its base shard,
// then its segments oldest first.
func (mo *month) frozen(yield func(*colstore.Shard) bool) {
	if mo.base != nil && !yield(mo.base) {
		return
	}
	for _, sh := range mo.segs {
		if !yield(sh) {
			return
		}
	}
}

// rows counts the month's rows, every part, reading no shard.
func (mo *month) rows() int {
	n := len(mo.mem)
	for sh := range mo.frozen {
		n += sh.Rows()
	}
	return n
}

// merges reports that a scan of the month interleaves rows of more than
// one part.
func (mo *month) merges() bool {
	n := len(mo.segs)
	if mo.base != nil {
		n++
	}
	if len(mo.mem) > 0 {
		n++
	}
	return n > 1
}

// land puts sorted rows into the month's in-memory rows: appended in
// place when they sort at or after its last row, which a scan holding the
// old slice never sees, else merged with them into a fresh slice. It
// reports whether they were appended.
func (mo *month) land(rows []slurm.Record) bool {
	mo.rng = mo.rng.extend(rows[0].Submit).extend(rows[len(rows)-1].Submit)
	if n := len(mo.mem); n == 0 || cmpRecords(&mo.mem[n-1], &rows[0]) <= 0 {
		mo.mem = append(mo.mem, rows...)
		return true
	}
	mo.mem = mergeBehind(mo.mem, rows)
	return false
}

// shardRange is a month's actual submit extent in unix nanoseconds,
// inclusive on both ends; noRows is the extent of a month with none.
type shardRange struct{ min, max int64 }

var noRows = shardRange{min: math.MaxInt64, max: math.MinInt64}

// extend widens the range to admit t.
func (r shardRange) extend(t time.Time) shardRange {
	ns := t.UnixNano()
	r.min, r.max = min(r.min, ns), max(r.max, ns)
	return r
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		months: map[Month]*month{},
		limits: sealLimits{rows: sealRows, segments: maxSegments},
	}
}

// monthLocked returns month m, adding it empty if the store has none. The
// caller holds s.mu for writing.
func (s *Store) monthLocked(m Month) *month {
	mo := s.months[m]
	if mo == nil {
		mo = &month{m: m, rng: noRows}
		s.months[m] = mo
	}
	return mo
}

// bumpLocked marks a change to the store's months: it drops the view
// scans share and advances the generation, which it returns. Every change
// ends in one — a seal or a fold only ever happens in a call that lands
// rows — so a view never outlives the months it copies. The caller holds
// s.mu for writing.
func (s *Store) bumpLocked() uint64 {
	s.views.Store(nil)
	return s.gen.Add(1)
}

// Generation returns the store's mutation counter: it advances once per
// AppendBatch, Add or Ingest that lands records (so once per batch Load
// landed), and never otherwise. Two reads returning the same value bracket
// a window in which every query answer was stable, which is what makes it
// usable as a response-cache key.
func (s *Store) Generation() uint64 { return s.gen.Load() }

// recordCmp is the shard emission order: submission time, ties broken
// by sacct job-id order (steps after their job). Because the simulator
// assigns job ids in submission order, this coincides with plain job-id
// order for simulated traces while letting queries binary-search the
// submit window.
func recordCmp(a, b slurm.Record) int { return cmpRecords(&a, &b) }

// cmpRecords is recordCmp without the two 760-byte copies, for the walks
// that compare every row.
func cmpRecords(a, b *slurm.Record) int {
	if !a.Submit.Equal(b.Submit) {
		if a.Submit.Before(b.Submit) {
			return -1
		}
		return 1
	}
	return slurm.CompareJobID(a.ID, b.ID)
}

// Add lands records as one batch: it is AppendBatch of a copy, so the
// caller's slice keeps its order, and it lands every record or none — a
// record bound for a corrupt base shard refuses the whole call, and the
// generation stays put.
func (s *Store) Add(records ...slurm.Record) error {
	_, _, err := s.AppendBatch(slices.Clone(records))
	return err
}

// AppendBatch is the live-append path: it lands one batch atomically —
// every record or none — in scan order, for exactly one generation.
//
// The batch is sorted in place by recordCmp (stably, so duplicate
// (submit, id) keys keep arrival order), and on return records is in the
// order a scan visits it. Every row is checked (colstore.Holds), and every
// base shard the batch reaches verified, all columns, before anything
// changes, so a row the format cannot hold or a corrupt backing shard
// refuses the whole batch: nothing lands and the generation stays put.
// The rows join their month's in-memory rows (land), and the base shard
// and segments are never touched: a scan's merge is what puts a late row
// between two frozen ones. The result is the scan order a stable sort of
// every row the month was given, in arrival order, produces.
//
// Once the batch has landed, the seal rule (sealTouched) may turn a
// month's in-memory rows into a segment, which moves no row and no
// generation.
//
// tail reports that the whole batch landed behind every record the store
// held before the call — a full scan of the new store is the old scan
// followed by records — which is what lets a consumer that folded the
// old scan fold only the batch.
func (s *Store) AppendBatch(records []slurm.Record) (gen uint64, tail bool, err error) {
	slices.SortStableFunc(records, recordCmp)
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(records) == 0 {
		return s.gen.Load(), true, nil
	}
	last, populated := s.lastMonthLocked()
	// The batch can only be a tail if its rows for the last month sort
	// behind that month's base shard and segments; their last key is read
	// here, with the verification, while refusing the batch is still free.
	var frozenTail *slurm.Record
	var touched []Month
	for i := range records {
		if err := colstore.Holds(&records[i]); err != nil {
			return s.gen.Load(), false, fmt.Errorf("sacct: append job %s: %w", records[i].ID, err)
		}
		m := MonthOf(records[i].Submit)
		if i > 0 && MonthOf(records[i-1].Submit) == m {
			continue
		}
		touched = append(touched, m)
		if mo := s.months[m]; mo != nil && mo.base != nil {
			err = mo.base.Load(context.Background(), colstore.AllColumns)
		}
		if err == nil && populated && m == last {
			frozenTail, err = s.months[m].frozenTail()
		}
		if err != nil {
			return s.gen.Load(), false, fmt.Errorf("sacct: append into shard %s: %w", m, err)
		}
	}
	tail = true
	for lo := 0; lo < len(records); {
		m := MonthOf(records[lo].Submit)
		hi := lo + 1
		for hi < len(records) && MonthOf(records[hi].Submit) == m {
			hi++
		}
		appended := s.monthLocked(m).land(records[lo:hi])
		tail = tail && appended && !(populated && m.Before(last)) &&
			!(m == last && frozenTail != nil && cmpRecords(frozenTail, &records[lo]) > 0)
		lo = hi
	}
	s.sealTouched(touched, last, populated)
	return s.bumpLocked(), tail, nil
}

// lastMonthLocked returns the latest populated month, every part
// included. The caller holds s.mu.
func (s *Store) lastMonthLocked() (last Month, ok bool) {
	for m, mo := range s.months {
		if mo.rows() > 0 && (!ok || last.Before(m)) {
			last, ok = m, true
		}
	}
	return last, ok
}

// mergeBehind merges sorted rows into a sorted shard as one fresh slice:
// each row lands behind every shard record that does not sort after it,
// which is where a stable sort of shard+rows puts it.
func mergeBehind(shard, rows []slurm.Record) []slurm.Record {
	out := make([]slurm.Record, 0, len(shard)+len(rows))
	from := 0
	for i := range rows {
		at := from + sort.Search(len(shard)-from, func(j int) bool {
			return cmpRecords(&shard[from+j], &rows[i]) > 0
		})
		out = append(append(out, shard[from:at]...), rows[i])
		from = at
	}
	return append(out, shard[from:]...)
}

// Ingest loads a complete simulation result as columns: each month of
// it is encoded straight from the result's record stream into a sealed
// segment (colstore.Builder), months on up to GOMAXPROCS goroutines, so
// no row is ever held as a Record. The result's outcomes say up front
// which jobs each month holds, and how many rows, and each job reseeds
// its own generator, so the months stream independently.
//
// The segments then land under one lock, for one generation, each as its
// month's newest segment — the latest in tie order, where arrival order
// puts them. The months the result reaches are sealed first, so that a
// row of the result that ties an in-memory row keeps behind it, and so is
// the store's newest month if the result passes it. Every base shard the
// result reaches is verified before anything changes, so a corrupt one
// refuses the whole call and nothing lands. A month past maxSegments
// segments folds them. The segments load lazily, as mapped base shards do.
func (s *Store) Ingest(res *sched.Result) error {
	spans := ingestSpans(res)
	if len(spans) == 0 {
		return nil
	}
	segs, err := colstore.Build(len(spans), runtime.GOMAXPROCS(0), func(b *colstore.Builder, i int) (*colstore.Shard, error) {
		return spans[i].seal(b, res)
	})
	if err != nil {
		return fmt.Errorf("sacct: ingest: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sp := range spans {
		if mo := s.months[sp.m]; mo != nil && mo.base != nil {
			if err := mo.base.Load(context.Background(), colstore.AllColumns); err != nil {
				return fmt.Errorf("sacct: ingest into shard %s: %w", sp.m, err)
			}
		}
	}
	for _, sp := range spans {
		s.sealLocked(sp.m)
	}
	if last, ok := s.lastMonthLocked(); ok && last.Before(spans[len(spans)-1].m) {
		s.sealLocked(last) // no longer the newest month
	}
	for i, sp := range spans {
		mo := s.monthLocked(sp.m)
		lo, hi, _ := segs[i].SubmitRange()
		mo.segs, mo.rng = append(mo.segs, segs[i]), mo.rng.extend(lo).extend(hi)
		if len(mo.segs) > s.limits.segments {
			s.foldLocked(mo)
		}
	}
	s.bumpLocked()
	return nil
}

// ingestSpan is a run of a result's jobs, in submission order, that
// submit in one month, and the rows they stream.
type ingestSpan struct {
	m            Month
	lo, hi, rows int
}

// ingestSpans cuts a result's jobs into the months they submit in.
func ingestSpans(res *sched.Result) []ingestSpan {
	steps := res.StepRows() > 0
	var spans []ingestSpan
	i := 0
	for o := range res.Outcomes {
		m := MonthOf(o.Req.Submit)
		if n := len(spans); n == 0 || spans[n-1].m != m {
			spans = append(spans, ingestSpan{m: m, lo: i, hi: i})
		}
		sp := &spans[len(spans)-1]
		sp.hi, sp.rows = i+1, sp.rows+1
		if steps {
			sp.rows += o.Steps
		}
		i++
	}
	return spans
}

// seal encodes the span's rows into a segment with b.
func (sp *ingestSpan) seal(b *colstore.Builder, res *sched.Result) (*colstore.Shard, error) {
	b.Reset(sp.m.Year, sp.m.Mon, sp.rows)
	for r := range res.JobRecords(sp.lo, sp.hi) {
		if err := b.Add(r); err != nil {
			return nil, fmt.Errorf("shard %s: %w", sp.m, err)
		}
	}
	sh, err := b.Seal()
	if err == nil && !sh.Sorted() {
		err = fmt.Errorf("shard %s: the result streams its rows out of scan order", sp.m)
	}
	return sh, err
}

// Finalize does nothing: a month's in-memory rows are in scan order from
// the moment they land. It is kept for the callers that still make it.
func (s *Store) Finalize() {}

// Months returns the populated shards in chronological order, every part
// included.
func (s *Store) Months() []Month {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.monthsLocked()
}

// monthsLocked is Months for a caller that holds s.mu.
func (s *Store) monthsLocked() []Month {
	return slices.SortedFunc(maps.Keys(s.months), Month.Compare)
}

// Len returns the total record count, counting base shards and segments
// from their footers without reading them.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, mo := range s.months {
		n += mo.rows()
	}
	return n
}

// Dump writes the full store as pipe-separated text with the complete
// curated field selection, suitable for Load.
func (s *Store) Dump(w io.Writer) error {
	_, err := s.Write(w, Query{IncludeSteps: true})
	return err
}

// DumpFile writes the store's text Dump to path (writeFile).
func (s *Store) DumpFile(path string) error { return writeFile(path, s.Dump) }

// writeFile writes path through a temp file that write fills and that is
// renamed into place once it is whole, so a dump that fails part-way — a
// corrupt base shard met mid-scan, a row the format refuses — leaves the
// previous file as it was, or no file, and no temp file beside it.
func writeFile(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(tmp, path)
		}
		if err != nil {
			os.Remove(tmp)
		}
	}
	if err != nil {
		return fmt.Errorf("sacct: dumping to %s: %w", path, err)
	}
	return nil
}

// Load reads a text Dump back into a store through the one row decoder
// (slurm.ByteRecordReader: a row past slurm.MaxLineLen fails the load
// with its line number). Malformed lines — rows that do not decode, and
// rows with a time the columnar format cannot hold (colstore.Holds) — are
// skipped and returned in count; the paper's curation stage discards them
// downstream, so the store keeps only clean rows.
//
// The rows land through AppendBatch in batches, each handed over once it
// holds sealRows rows and the next row opens another month, and the seal
// rule seals each month as the next arrives: a dump in scan order loads
// as one segment a month, and late rows merge as AppendBatch merges them.
func Load(r io.Reader) (*Store, int, error) {
	br, err := slurm.NewByteRecordReader(r)
	if err != nil {
		return nil, 0, fmt.Errorf("sacct: dump header: %w", err)
	}
	st := NewStore()
	malformed := 0
	var batch []slurm.Record
	for rec, err := range br.All() {
		var rowErr *slurm.RowError
		switch {
		case err == nil && colstore.Holds(rec) == nil:
			if n := len(batch); n >= sealRows && MonthOf(batch[n-1].Submit) != MonthOf(rec.Submit) {
				if _, _, err := st.AppendBatch(batch); err != nil {
					return nil, malformed, err
				}
				clear(batch) // AppendBatch copied the rows: drop their strings and maps
				batch = batch[:0]
			}
			// The reader refills rec's TRES maps on the next row.
			batch = append(batch, rec.Clone())
		case err == nil, errors.As(err, &rowErr):
			malformed++
		default:
			return nil, malformed, err
		}
	}
	if _, _, err := st.AppendBatch(batch); err != nil {
		return nil, malformed, err
	}
	return st, malformed, nil
}

// loadFile reads a text dump file.
func loadFile(path string) (*Store, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	return Load(f)
}
