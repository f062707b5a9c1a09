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
	"iter"
	"maps"
	"os"
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
// is three parts, any of which may be empty: sealed rows, the month's
// shard of the columnar file the store was opened from, which stay on
// disk as mapped columns; segments, in-memory one-shard columnar files
// that AppendBatch seals its rows into (oldest first); and an in-memory
// []Record of what Add, AppendBatch and Ingest put there since. Sealed
// rows and segments are read through colstore.Cursors. A scan merges the
// parts — on a key tie sealed rows first, then segments oldest first,
// then the in-memory rows, which is where a stable sort of the rows in
// arrival order puts them — so a store opened from a dump and appended
// to reads exactly like a text-loaded store of the same rows, while
// holding Records only for the part of the tail not yet sealed.
//
// Queries, Add, AppendBatch, and Finalize may run concurrently: mutators
// never write through storage a reader could be holding (Finalize and a
// late AppendBatch build a fresh slice and swap the shard pointer; Add
// and a tail AppendBatch append past every captured length; a seal
// starts the month's rows afresh, and a fold swaps in a fresh segment
// list), sealed rows and segments never change, and a scan reads one
// capture of every month it visits, taken under one lock together with
// the generation it belongs to.
type Store struct {
	mu     sync.RWMutex
	shards map[Month][]slurm.Record    // the in-memory rows of each month
	sorted map[Month]bool              // shards[m] known to be in recordCmp order
	ranges map[Month]shardRange        // submit extent of every populated month, every part included
	sealed map[Month]*colstore.Shard   // the sealed rows of each month, in recordCmp order
	segs   map[Month][]*colstore.Shard // the segments of each month, oldest first, each in recordCmp order
	bin    *colstore.File              // backing columnar file; nil for text stores

	limits       sealLimits
	seals, folds *obs.Counter // nil until Instrument

	gen atomic.Uint64 // bumped on every successful logical mutation
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
		sealed: map[Month]*colstore.Shard{},
		segs:   map[Month][]*colstore.Shard{},
		limits: sealLimits{rows: sealRows, segments: maxSegments},
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

// Add inserts records, sharding by submission month. Records for a month
// with sealed rows land in its in-memory part, behind the sealed ones.
//
// Before the first record joins a sealed month, every column of that
// shard is verified. A corrupt shard aborts the insert at that record and
// returns the error: records earlier in the batch stay inserted, the
// failing record and everything after it do not, and the corrupt month
// keeps its on-disk rows visible to Months/Len and its error surfacing on
// every later scan — nothing is silently dropped on either side.
func (s *Store) Add(records ...slurm.Record) error {
	return s.addAll(func(yield func(*slurm.Record) bool) {
		for i := range records {
			if !yield(&records[i]) {
				return
			}
		}
	}, nil)
}

// addAll appends a copy of every yielded record to its month's in-memory
// rows, under one lock and one generation, stopping at the first that a
// corrupt sealed shard refuses. reserve, if non-nil, is a size hint:
// reserve[m] is how many records are coming for month m, and the month's
// slice is grown by that much, once, when its first record lands.
func (s *Store) addAll(recs iter.Seq[*slurm.Record], reserve map[Month]int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	added := false
	defer func() {
		if added {
			s.gen.Add(1)
		}
	}()
	for r := range recs {
		m := MonthOf(r.Submit)
		if sh := s.sealed[m]; sh != nil {
			if err := sh.Load(context.Background(), colstore.AllColumns); err != nil {
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
	return nil
}

// AppendBatch is the live-append path: it lands one batch atomically —
// every record or none — in scan order, for exactly one generation. Add
// and Finalize remain the bulk-load pair.
//
// The batch is sorted in place by recordCmp (stably, so duplicate
// (submit, id) keys keep arrival order), and on return records is in the
// order a scan visits it. Every sealed shard the batch reaches is
// verified, all columns, before anything changes, so a corrupt backing
// shard refuses the whole batch: nothing lands and the generation stays
// put. The rows join their month's in-memory part — appended in place
// when they sort at or after its last record, merged with it into one
// fresh slice otherwise, leaving scans that hold the old slice on their
// pre-append view — and the sealed rows and segments are never touched:
// a scan's merge is what puts a late row between two frozen ones. The
// result is the scan order Add followed by Finalize would produce.
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
	// behind that month's sealed rows and segments; their last key is read
	// here, with the verification, while refusing the batch is still free.
	var frozenTail *slurm.Record
	var touched []Month
	for i := range records {
		m := MonthOf(records[i].Submit)
		if i > 0 && MonthOf(records[i-1].Submit) == m {
			continue
		}
		touched = append(touched, m)
		if sh := s.sealed[m]; sh != nil {
			err = sh.Load(context.Background(), colstore.AllColumns)
		}
		if err == nil && populated && m == last {
			frozenTail, err = s.frozenTailLocked(m)
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
		part := records[lo:hi]
		lo = hi
		shard := s.shards[m]
		switch {
		case len(shard) == 0 || s.sorted[m] && cmpRecords(&shard[len(shard)-1], &part[0]) <= 0:
			s.shards[m] = append(shard, part...)
			tail = tail && !(populated && m.Before(last)) &&
				!(m == last && frozenTail != nil && cmpRecords(frozenTail, &part[0]) > 0)
		case s.sorted[m]:
			s.shards[m] = mergeBehind(shard, part)
			tail = false
		default: // Add left the rows awaiting Finalize: finalize them here
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
	s.sealTouched(touched, last, populated)
	return s.gen.Add(1), tail, nil
}

// lastMonthLocked returns the latest populated month, every part
// included. The caller holds s.mu.
func (s *Store) lastMonthLocked() (last Month, ok bool) {
	for m, shard := range s.shards {
		if len(shard) > 0 && (!ok || last.Before(m)) {
			last, ok = m, true
		}
	}
	for m, sh := range s.sealed {
		if sh.Rows() > 0 && (!ok || last.Before(m)) {
			last, ok = m, true
		}
	}
	for m, segs := range s.segs {
		if len(segs) > 0 && (!ok || last.Before(m)) {
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
			return cmpRecords(&shard[from+j], &part[i]) > 0
		})
		out = append(append(out, shard[from:at]...), part[i])
		from = at
	}
	return append(out, shard[from:]...)
}

// Ingest loads a complete simulation result from its record stream: each
// job followed by its own steps — which is recordCmp order, so the
// Finalize that follows finds every shard sorted and copies nothing. The
// result's outcomes say up front what it adds to each month, so each
// month's slice is grown once to that size, instead of by doubling under
// Add, and each row is built once, in the stream's scratch, and copied
// once, into its shard. The store is locked while the stream runs.
func (s *Store) Ingest(res *sched.Result) error {
	steps := res.StepRows() > 0
	reserve := map[Month]int{}
	for o := range res.Outcomes {
		n := 1
		if steps {
			n += o.Steps
		}
		reserve[MonthOf(o.Req.Submit)] += n
	}
	return s.addAll(res.Records, reserve)
}

// Finalize puts every month's in-memory rows in emission order
// (recordCmp). Call after ingestion or a batch of Adds. Rows that already
// arrived in order — the common case when reloading a Dump or ingesting a
// simulation — are detected with a linear is-sorted check and skipped
// instead of re-sorted. Rows that do need sorting are sorted into a fresh
// copy and swapped in, so concurrent scans holding the old slice keep a
// consistent view. Sealed rows are in order already.
func (s *Store) Finalize() {
	s.mu.Lock()
	defer s.mu.Unlock()
	reordered := false
	for m, shard := range s.shards {
		if s.sorted[m] {
			continue
		}
		inOrder := true
		for i := 1; i < len(shard) && inOrder; i++ {
			inOrder = cmpRecords(&shard[i-1], &shard[i]) <= 0
		}
		if !inOrder {
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

// Months returns the populated shards in chronological order, every part
// included.
func (s *Store) Months() []Month {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.monthsLocked()
}

// monthsLocked is Months for a caller that holds s.mu.
func (s *Store) monthsLocked() []Month {
	out := slices.Collect(maps.Keys(s.shards))
	out = slices.AppendSeq(out, maps.Keys(s.sealed))
	out = slices.AppendSeq(out, maps.Keys(s.segs))
	slices.SortFunc(out, Month.Compare)
	return slices.Compact(out)
}

// Len returns the total record count, counting sealed rows and segments
// from their footers without reading them.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, shard := range s.shards {
		n += len(shard)
	}
	for _, sh := range s.sealed {
		n += sh.Rows()
	}
	for _, segs := range s.segs {
		for _, sh := range segs {
			n += sh.Rows()
		}
	}
	return n
}

// Dump writes the full store as pipe-separated text with the complete
// curated field selection, suitable for Load.
func (s *Store) Dump(w io.Writer) error {
	_, err := s.Write(w, Query{IncludeSteps: true})
	return err
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

// Load reads a text Dump back into a store through the one row decoder
// (slurm.ByteRecordReader: a row past slurm.MaxLineLen fails the load
// with its line number). Malformed lines are returned in count; the
// paper's curation stage discards them downstream, so the store keeps
// only clean rows.
func Load(r io.Reader) (*Store, int, error) {
	br, err := slurm.NewByteRecordReader(r)
	if err != nil {
		return nil, 0, fmt.Errorf("sacct: dump header: %w", err)
	}
	st := NewStore()
	malformed := 0
	for rec, err := range br.All() {
		var rowErr *slurm.RowError
		switch {
		case err == nil:
			// A shallow copy is the row's own: see slurm.ByteRecordReader.
			if err := st.Add(*rec); err != nil {
				// Unreachable for a fresh text store (no lazy shards), but
				// the error is not ours to swallow if that ever changes.
				return nil, malformed, err
			}
		case errors.As(err, &rowErr):
			malformed++
		default:
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
