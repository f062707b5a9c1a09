package sacct

import (
	"context"
	"fmt"
	"slices"

	"slurmsight/internal/sacct/colstore"
	"slurmsight/internal/slurm"
)

// addRef is the reference the seal and merge paths are held to: it lands
// a copy of every record in its month's in-memory rows, under one lock and
// one generation, and never seals, so a store built with it scans the way
// a stable sort of each month's rows in arrival order puts them, read
// straight from a []Record. It stops at the first record a corrupt base
// shard refuses, keeping the ones before it.
//
// A record that sorts at or after its month's last row is appended in
// place; any other is held back as late, and when the call ends each
// month's late rows get one stable sort and one merge (land). In-order
// rows only ever increase, so no later one ties a late row, and that is
// where a stable sort of all of them in arrival order puts each.
//
// It is also the way a test gives a month in-memory rows beside a base
// shard or segments as its starting state.
func (s *Store) addRef(records ...slurm.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	added := false
	var late map[*month][]slurm.Record
	defer func() {
		for mo, rows := range late {
			slices.SortStableFunc(rows, recordCmp)
			mo.land(rows)
		}
		if added {
			s.bumpLocked()
		}
	}()
	var mo *month
	for i := range records {
		r := &records[i]
		if m := MonthOf(r.Submit); mo == nil || mo.m != m {
			if mo = s.months[m]; mo != nil && mo.base != nil {
				if err := mo.base.Load(context.Background(), colstore.AllColumns); err != nil {
					return fmt.Errorf("sacct: add into shard %s: %w", m, err)
				}
			}
			mo = s.monthLocked(m)
		}
		if n := len(mo.mem); n > 0 && cmpRecords(&mo.mem[n-1], r) > 0 {
			if late == nil {
				late = map[*month][]slurm.Record{}
			}
			late[mo] = append(late[mo], *r)
		} else {
			mo.mem = append(mo.mem, *r)
			mo.rng = mo.rng.extend(r.Submit)
		}
		added = true
	}
	return nil
}
