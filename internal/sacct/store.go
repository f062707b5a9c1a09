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
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

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

// Store is an in-memory accounting database sharded by submission month.
// Queries, Add, AppendBatch, and Finalize may run concurrently: mutators
// never write through record storage a reader could be holding (Finalize
// and a late AppendBatch build a fresh slice and swap the shard pointer;
// Add and a tail AppendBatch append past every captured length), so a
// scan started before a mutation sees a consistent pre-mutation view of
// each shard it visits.
//
// A store opened with OpenBinary starts lazy: each month shard stays on
// disk as columns until the first full scan touches it (at which point
// it materialises once and is cached), and projected queries through
// Write decode only the columns the field selection needs.
type Store struct {
	mu     sync.RWMutex
	shards map[Month][]slurm.Record
	sorted map[Month]bool       // shard known to be in recordLess order
	ranges map[Month]shardRange // actual submit extent of materialised shards

	lazy map[Month]*colstore.Shard // binary shards not yet materialised
	bin  *colstore.File            // backing columnar file; nil for text stores

	gen atomic.Uint64 // bumped on every successful logical mutation

	// decWorkers caps concurrent shard decodes (0 = GOMAXPROCS); see
	// SetDecodeWorkers in parallel.go.
	decWorkers atomic.Int32
}

// shardRange is a shard's actual submit extent in unix nanoseconds,
// inclusive on both ends.
type shardRange struct{ min, max int64 }

// extend widens the range to admit t.
func (r shardRange) extend(t time.Time) shardRange {
	ns := t.UnixNano()
	if ns < r.min {
		r.min = ns
	}
	if ns > r.max {
		r.max = ns
	}
	return r
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		shards: map[Month][]slurm.Record{},
		sorted: map[Month]bool{},
		ranges: map[Month]shardRange{},
		lazy:   map[Month]*colstore.Shard{},
	}
}

// Generation returns the store's mutation counter: it advances once per
// AppendBatch that lands, after every Add/Ingest that lands records and
// every Finalize that reorders a shard, and never otherwise. Two reads
// returning the same value bracket a window in which every query answer
// was stable, which is what makes it usable as a response-cache key.
func (s *Store) Generation() uint64 { return s.gen.Load() }

// recordCmp is the shard emission order: submission time, ties broken
// by sacct job-id order (steps after their job). Because the simulator
// assigns job ids in submission order, this coincides with plain job-id
// order for simulated traces while letting queries binary-search the
// submit window.
func recordCmp(a, b slurm.Record) int {
	if !a.Submit.Equal(b.Submit) {
		if a.Submit.Before(b.Submit) {
			return -1
		}
		return 1
	}
	return slurm.CompareJobID(a.ID, b.ID)
}

// recordLess is recordCmp as a less-predicate, for binary searches.
func recordLess(a, b *slurm.Record) bool { return recordCmp(*a, *b) < 0 }

// Add inserts records, sharding by submission month. Adding into a
// month still lazy on disk materialises that shard first so the new
// records land behind the stored ones.
//
// A materialisation failure (a corrupt backing shard) aborts the insert
// at the failing record and returns the decode error: records earlier
// in the batch stay inserted, the failing record and everything after
// it do not, and the corrupt month keeps its on-disk rows visible to
// Months/Len and its error surfacing on every later scan — nothing is
// silently dropped on either side.
func (s *Store) Add(records ...slurm.Record) error { return s.add(records, nil) }

// add is Add with an optional size hint: reserve[m] is how many records
// the caller is about to add to month m across this and later calls, and
// the month's shard is grown by that much, once, when its first record
// lands (the entry is then dropped from reserve).
func (s *Store) add(records []slurm.Record, reserve map[Month]int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	added := false
	for i := range records {
		r := &records[i]
		m := MonthOf(r.Submit)
		if _, ok := s.lazy[m]; ok {
			if err := s.materializeLocked(context.Background(), m); err != nil {
				if added {
					s.gen.Add(1)
				}
				return fmt.Errorf("sacct: add into shard %s: %w", m, err)
			}
		}
		if rg, ok := s.ranges[m]; ok {
			s.ranges[m] = rg.extend(r.Submit)
		} else {
			ns := r.Submit.UnixNano()
			s.ranges[m] = shardRange{min: ns, max: ns}
		}
		shard := s.shards[m]
		if n := reserve[m]; n > 0 {
			shard = slices.Grow(shard, n)
			delete(reserve, m)
		}
		s.shards[m] = append(shard, *r)
		delete(s.sorted, m)
		added = true
	}
	if added {
		s.gen.Add(1)
	}
	return nil
}

// AppendBatch is the live-append path: it lands one batch atomically —
// every record or none — in scan order, for exactly one generation. Add
// and Finalize remain the bulk-load pair.
//
// The batch is sorted in place by recordCmp (stably, so duplicate
// (submit, id) keys keep arrival order), and on return records is in the
// order a scan visits it. Every target month still lazy on disk is
// materialised before any shard changes, so a corrupt backing shard
// refuses the whole batch: nothing lands and the generation stays put.
// A month's rows that sort at or after its shard's last record append in
// place; otherwise shard and rows merge into one fresh slice, leaving
// scans that hold the old slice on their pre-append view. The result is
// the shard order Add followed by Finalize would produce.
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
	for i := range records {
		m := MonthOf(records[i].Submit)
		if _, ok := s.lazy[m]; !ok {
			continue
		}
		if err := s.materializeLocked(context.Background(), m); err != nil {
			return s.gen.Load(), false, fmt.Errorf("sacct: append into shard %s: %w", m, err)
		}
	}
	last, populated := s.lastMonthLocked()
	tail = true
	for lo := 0; lo < len(records); {
		m := MonthOf(records[lo].Submit)
		hi := lo + 1
		for hi < len(records) && MonthOf(records[hi].Submit) == m {
			hi++
		}
		part := records[lo:hi]
		lo = hi
		shard := s.shards[m]
		switch {
		case len(shard) == 0 || s.sorted[m] && recordCmp(shard[len(shard)-1], part[0]) <= 0:
			s.shards[m] = append(shard, part...)
			tail = tail && !(populated && m.Before(last))
		case s.sorted[m]:
			s.shards[m] = mergeBehind(shard, part)
			tail = false
		default: // Add left the shard awaiting Finalize: finalize it here
			shard = append(slices.Clip(shard), part...)
			slices.SortStableFunc(shard, recordCmp)
			s.shards[m] = shard
			tail = false
		}
		s.sorted[m] = true
		rg, ok := s.ranges[m]
		if !ok {
			ns := part[0].Submit.UnixNano()
			rg = shardRange{min: ns, max: ns}
		}
		s.ranges[m] = rg.extend(part[0].Submit).extend(part[len(part)-1].Submit)
	}
	return s.gen.Add(1), tail, nil
}

// lastMonthLocked returns the latest populated month, lazy shards
// included. The caller holds s.mu.
func (s *Store) lastMonthLocked() (last Month, ok bool) {
	for m, shard := range s.shards {
		if len(shard) > 0 && (!ok || last.Before(m)) {
			last, ok = m, true
		}
	}
	for m, sh := range s.lazy {
		if sh.Rows() > 0 && (!ok || last.Before(m)) {
			last, ok = m, true
		}
	}
	return last, ok
}

// mergeBehind merges a sorted batch into a sorted shard as one fresh
// slice: each batch record lands behind every shard record that does not
// sort after it, which is where a stable sort of shard+batch puts it.
func mergeBehind(shard, part []slurm.Record) []slurm.Record {
	out := make([]slurm.Record, 0, len(shard)+len(part))
	from := 0
	for i := range part {
		at := from + sort.Search(len(shard)-from, func(j int) bool {
			return recordCmp(shard[from+j], part[i]) > 0
		})
		out = append(append(out, shard[from:at]...), part[i])
		from = at
	}
	return append(out, shard[from:]...)
}

// Ingest loads a complete simulation result (jobs and steps). The
// result's size is known up front, so each month shard is grown once to
// what the result adds to it, instead of by doubling under Add.
func (s *Store) Ingest(res *sched.Result) error {
	reserve := map[Month]int{}
	for _, recs := range [][]slurm.Record{res.Jobs, res.Steps} {
		for i := range recs {
			reserve[MonthOf(recs[i].Submit)]++
		}
	}
	if err := s.add(res.Jobs, reserve); err != nil {
		return err
	}
	return s.add(res.Steps, reserve)
}

// Finalize puts every materialised shard in emission order (recordCmp).
// Call after ingestion or a batch of Adds. Shards whose records already
// arrived in order — the common case when reloading a Dump — are
// detected with a linear is-sorted check and skipped instead of
// re-sorted. A shard that does need sorting is sorted into a fresh copy
// and swapped in, so concurrent scans holding the old slice keep a
// consistent view. Lazy binary shards are left on disk; they sort (if
// needed) when materialised.
func (s *Store) Finalize() {
	s.mu.Lock()
	defer s.mu.Unlock()
	reordered := false
	for m := range s.shards {
		if s.sorted[m] {
			continue
		}
		shard := s.shards[m]
		if !slices.IsSortedFunc(shard, recordCmp) {
			shard = slices.Clone(shard)
			slices.SortStableFunc(shard, recordCmp)
			s.shards[m] = shard
			reordered = true
		}
		s.sorted[m] = true
	}
	if reordered {
		s.gen.Add(1)
	}
}

// Months returns the populated shards in chronological order, lazy
// binary shards included.
func (s *Store) Months() []Month {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Month, 0, len(s.shards)+len(s.lazy))
	for m := range s.shards {
		out = append(out, m)
	}
	for m := range s.lazy {
		if _, ok := s.shards[m]; !ok {
			out = append(out, m)
		}
	}
	slices.SortFunc(out, Month.Compare)
	return out
}

// Len returns the total record count, counting lazy shards from their
// footers without decoding them.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, shard := range s.shards {
		n += len(shard)
	}
	for m, sh := range s.lazy {
		if _, ok := s.shards[m]; !ok {
			n += sh.Rows()
		}
	}
	return n
}

// snapshot materialises any lazy shards, then returns every populated
// month with its record slice, and the generation they belong to, under
// a single read lock — so a concurrent mutation cannot interleave
// between shards mid-iteration or between the shards and their label.
// The returned slices alias store storage; callers must not mutate them.
func (s *Store) snapshot(ctx context.Context) ([]Month, [][]slurm.Record, uint64, error) {
	if err := s.warmMonths(ctx, nil); err != nil {
		return nil, nil, 0, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	months := make([]Month, 0, len(s.shards))
	for m := range s.shards {
		months = append(months, m)
	}
	slices.SortFunc(months, Month.Compare)
	shards := make([][]slurm.Record, len(months))
	for i, m := range months {
		shards[i] = s.shards[m]
	}
	return months, shards, s.gen.Load(), nil
}

// Dump writes the full store as pipe-separated text with the complete
// curated field selection, suitable for Load.
func (s *Store) Dump(w io.Writer) error {
	_, shards, _, err := s.snapshot(context.Background())
	if err != nil {
		return err
	}
	tw, err := newTextWriter(w, slurm.SelectedNames())
	if err != nil {
		return err
	}
	for _, shard := range shards {
		for i := range shard {
			if err := tw.record(&shard[i]); err != nil {
				return err
			}
		}
	}
	return tw.flush()
}

// DumpFile writes the store to a file.
func (s *Store) DumpFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.Dump(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// maxLoadLine bounds one dump row. A row past it fails the load with a
// line-numbered error rather than an opaque scanner failure.
const maxLoadLine = 8 << 20

// loadLineReader reads dump lines through a bufio.Reader with a
// growable spill, so rows longer than the read buffer still decode and
// rows past maxLoadLine fail with their line number.
type loadLineReader struct {
	r    *bufio.Reader
	long []byte
	line int // 1-based number of the line most recently returned
}

// next returns the next line with its "\n" (and any "\r" before it)
// stripped. io.EOF marks clean end of input.
func (lr *loadLineReader) next() ([]byte, error) {
	line, err := lr.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		lr.long = append(lr.long[:0], line...)
		for err == bufio.ErrBufferFull {
			if len(lr.long) > maxLoadLine {
				return nil, fmt.Errorf("sacct: line %d: row exceeds %d bytes", lr.line+1, maxLoadLine)
			}
			line, err = lr.r.ReadSlice('\n')
			lr.long = append(lr.long, line...)
		}
		line = lr.long
	}
	if err != nil && err != io.EOF {
		return nil, err
	}
	if len(line) == 0 {
		return nil, io.EOF
	}
	lr.line++
	if n := len(line); line[n-1] == '\n' {
		line = line[:n-1]
	}
	if len(line) > maxLoadLine {
		return nil, fmt.Errorf("sacct: line %d: row exceeds %d bytes", lr.line, maxLoadLine)
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// Load reads a text Dump back into a store. Malformed lines are returned
// in count; the paper's curation stage discards them downstream, so the
// store keeps only clean rows.
func Load(r io.Reader) (*Store, int, error) {
	lr := &loadLineReader{r: bufio.NewReaderSize(r, 1<<16)}
	header, err := lr.next()
	if err == io.EOF {
		return nil, 0, fmt.Errorf("sacct: empty dump")
	}
	if err != nil {
		return nil, 0, err
	}
	fields := strings.Split(strings.TrimSpace(string(header)), slurm.Separator)
	for _, f := range fields {
		if _, ok := slurm.FieldByName(f); !ok {
			return nil, 0, fmt.Errorf("sacct: dump header has unknown field %q", f)
		}
	}
	st := NewStore()
	malformed := 0
	for {
		raw, err := lr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, malformed, err
		}
		line := string(raw)
		if strings.TrimSpace(line) == "" {
			continue
		}
		rec, err := slurm.DecodeRecord(line, fields)
		if err != nil {
			malformed++
			continue
		}
		if err := st.Add(*rec); err != nil {
			// Unreachable for a fresh text store (no lazy shards), but
			// the error is not ours to swallow if that ever changes.
			return nil, malformed, err
		}
	}
	st.Finalize()
	return st, malformed, nil
}

// LoadFile reads a text dump file.
func LoadFile(path string) (*Store, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	return Load(f)
}
