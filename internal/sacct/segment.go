package sacct

import (
	"context"
	"runtime/debug"

	"slurmsight/internal/obs"
	"slurmsight/internal/sacct/colstore"
	"slurmsight/internal/slurm"
)

// Months as segments. A segment is a one-shard columnar file in a heap
// slice, about a tenth of a Record a row. Ingest builds one per month of a
// simulation straight from its record stream (store.go). AppendBatch lands
// rows as Records, then seals a month's sorted in-memory rows into a
// segment (colstore.Seal) as soon as no tail append is likely to extend
// them:
//
//   - (a) the batch touched the month and the month is not the store's
//     newest: late rows;
//   - (b) the batch made a later month the newest: the old newest rolls
//     over;
//   - (c) the month holds sealRows in-memory rows.
//
// A month with more than maxSegments segments folds them into one. Add
// and Load land through AppendBatch, so their months seal too. Every row
// a store holds fits the format (colstore.Holds), so every seal succeeds.
const (
	sealRows    = 4096
	maxSegments = 8
)

// sealLimits is a store's copy of the two constants; tests lower it
// through the hook in export_test.go.
type sealLimits struct{ rows, segments int }

// sealTouched applies the seal rule after a batch landed in the touched
// months, in order; last is the newest month before it, if populated. The
// caller holds s.mu.
func (s *Store) sealTouched(touched []Month, last Month, populated bool) {
	newest := touched[len(touched)-1]
	if populated && newest.Before(last) {
		newest = last
	}
	for _, m := range touched {
		if m != newest || len(s.months[m].mem) >= s.limits.rows {
			s.sealLocked(m)
		}
	}
	if populated && last != newest {
		s.sealLocked(last)
	}
}

// sealLocked turns month m's in-memory rows into its newest segment, and
// folds the month's segments once there are more than the limit. The rows
// and their order do not change, so neither does the generation. The
// month's next row starts a fresh slice — a running scan may still hold
// this one. Should the encoder fail, the rows stay in memory, served as
// before: a seal never drops a row.
func (s *Store) sealLocked(m Month) {
	mo := s.months[m]
	if mo == nil || len(mo.mem) == 0 {
		return
	}
	sh, err := colstore.Seal(m.Year, m.Mon, mo.mem)
	if err != nil {
		return
	}
	mo.segs, mo.mem = append(mo.segs, sh), nil
	s.seals.Inc()
	if len(mo.segs) > s.limits.segments {
		s.foldLocked(mo)
	}
}

// foldLocked merges a month's segments into one, swapped in as a fresh
// list so that a scan holding the old one keeps reading it.
func (s *Store) foldLocked(mo *month) {
	recs, err := collectMonth(month{m: mo.m, segs: mo.segs})
	if err != nil {
		return
	}
	sh, err := colstore.Seal(mo.m.Year, mo.m.Mon, recs)
	if err != nil {
		return
	}
	mo.segs = []*colstore.Shard{sh}
	s.folds.Inc()
}

// collectMonth reads one month in scan order into owned copies.
func collectMonth(mv month) ([]slurm.Record, error) {
	p := &scanPlan{cols: colstore.AllColumns}
	v := storeView{months: []month{mv}}
	recs := make([]slurm.Record, 0, mv.rows())
	var err error
	v.run(context.Background(), p, func(r *slurm.Record, rerr error) bool {
		if err = rerr; err == nil {
			recs = append(recs, r.Clone())
		}
		return err == nil
	})
	return recs, err
}

// frozenTail returns the greatest key among the month's base shard and
// segments, nil when it has neither.
func (mo *month) frozenTail() (*slurm.Record, error) {
	var last *slurm.Record
	for sh := range mo.frozen {
		k, err := lastKey(sh)
		if err != nil {
			return nil, err
		}
		if k != nil && (last == nil || cmpRecords(k, last) > 0) {
			last = k
		}
	}
	return last, nil
}

// lastKey reads the (Submit, JobID) of a shard's last row; nil for an
// empty shard.
func lastKey(sh *colstore.Shard) (_ *slurm.Record, err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer catchFault(&err)
	cur := colstore.NewCursor(nil, mergeKey)
	defer cur.Close()
	if err := cur.Open(context.Background(), sh); err != nil {
		return nil, err
	}
	cur.Seek(sh.Rows()-1, sh.Rows())
	return cur.Next()
}

// catchFault, deferred directly inside a debug.SetPanicOnFault window,
// turns a memory fault — a mapped page its file no longer backs — into the
// colstore.ErrCorrupt it stands for, and re-panics anything else.
func catchFault(err *error) {
	if r := recover(); r != nil {
		if *err = colstore.AsFault(r); *err == nil {
			panic(r)
		}
	}
}

// TailStats describes the live tail: the rows held as Records, and the
// segments the rest of it was sealed into.
type TailStats struct {
	MemRows      int   // rows held in memory as Records
	Segments     int   // in-memory columnar segments
	SegmentBytes int64 // the heap those segments' files occupy
}

// Tail reports the store's TailStats.
func (s *Store) Tail() TailStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var t TailStats
	for _, mo := range s.months {
		t.MemRows += len(mo.mem)
		t.Segments += len(mo.segs)
		for _, sh := range mo.segs {
			t.SegmentBytes += sh.FileSize()
		}
	}
	return t
}

// instrumentTail publishes the live tail into reg: the sacct_mem_rows,
// sacct_segments and sacct_segment_bytes gauges, sampled at every scrape,
// and the sacct_seals_total and sacct_folds_total counters, counted from
// here on.
func (s *Store) instrumentTail(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.mu.Lock()
	s.seals, s.folds = reg.Counter("sacct_seals_total"), reg.Counter("sacct_folds_total")
	s.mu.Unlock()
	memRows, segments, segBytes := reg.Gauge("sacct_mem_rows"), reg.Gauge("sacct_segments"), reg.Gauge("sacct_segment_bytes")
	reg.OnScrape("sacct_tail", func() {
		t := s.Tail()
		memRows.Set(int64(t.MemRows))
		segments.Set(int64(t.Segments))
		segBytes.Set(t.SegmentBytes)
	})
}
