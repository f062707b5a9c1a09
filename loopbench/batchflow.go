package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"slurmsight/internal/core"
	"slurmsight/internal/obs"
	"slurmsight/internal/sacct"
)

// batch-flow: one op is what one schedflow invocation does — open the
// binary trace, run the whole static workflow into fresh output and
// cache directories, close. Every op must leave figure specs and CSV
// sidecars byte-identical to a sequential (IngestWorkers 1) reference.
// The loop's first op is the cold one: nothing in the process has run
// the pipeline before it.

type batchSession struct {
	env  *env
	sums []uint64 // artifact digest of every op of the last loop
}

func openBatch(e *env) (session, error) { return &batchSession{env: e}, nil }

func (s *batchSession) loop(parent *obs.Span) loopStats {
	var st loopStats
	s.sums = s.sums[:0]
	for i := 0; i < s.env.sz.batchOps; i++ {
		sum, rows, wall, err := s.env.flowOp(i, 0, parent)
		st.opMS = append(st.opMS, ms(wall))
		s.sums = append(s.sums, sum)
		if err != nil {
			st.fail("op %d: %v", i, err)
			continue
		}
		st.work += int64(rows)
	}
	return st
}

// verify makes the sequential reference — after the loop, so the loop's
// first op really is the process's first — and holds every op to it.
func (s *batchSession) verify(st *loopStats) error {
	e := s.env
	if e.batchWant == 0 {
		want, rows, _, err := e.flowOp(-1, 1, e.root)
		if err != nil {
			return fmt.Errorf("sequential reference: %w", err)
		}
		if rows != e.flow.rows {
			return fmt.Errorf("reference curated %d rows, fixture holds %d", rows, e.flow.rows)
		}
		e.digests["batch-flow.artifacts"] = hex64(want)
		if e.cfg.tamper {
			want++
		}
		e.batchWant = want
	}
	for i, sum := range s.sums {
		if sum != 0 && sum != e.batchWant {
			st.fail("op %d: artifact digest %x, sequential reference %x", i, sum, e.batchWant)
		}
	}
	return nil
}

func (s *batchSession) close() {}

// flowOp runs the workflow once and returns the digest of its figure
// specs and sidecars, the curated row count and the op's wall time
// (open → run → close; digesting and cleanup are outside it).
func (e *env) flowOp(serial, ingestWorkers int, parent *obs.Span) (sum uint64, rows int, wall time.Duration, err error) {
	sp := parent.Child("op")
	sp.SetAttrInt("op", int64(serial))
	defer sp.End()
	dir := filepath.Join(e.dir, fmt.Sprintf("flow-op%d", serial))
	defer os.RemoveAll(dir)

	t0 := time.Now()
	s := sp.Child("sacct.open")
	store, _, err := sacct.OpenFile(e.flow.path)
	s.End()
	if err != nil {
		return 0, 0, 0, err
	}
	s = sp.Child("core.run")
	art, err := core.Run(context.Background(), core.Config{
		SystemName:      e.flow.system.Name,
		Store:           store,
		OutputDir:       filepath.Join(dir, "data"),
		CacheDir:        filepath.Join(dir, "cache"),
		Granularity:     sacct.Monthly,
		Start:           e.sz.flowStart,
		End:             e.sz.flowEnd,
		Workers:         2,
		IngestWorkers:   ingestWorkers,
		ExtendedFigures: true,
	})
	s.End()
	cerr := store.Close()
	wall = time.Since(t0)
	if err != nil {
		return 0, 0, wall, err
	}
	if cerr != nil {
		return 0, 0, wall, cerr
	}

	s = sp.Child("loopbench.verify")
	defer s.End()
	d := newDigester()
	for _, key := range sortedKeys(art.Figures) {
		d.part([]byte(key))
		if err := d.file(art.Figures[key].SpecPath); err != nil {
			return 0, 0, wall, err
		}
	}
	for _, p := range art.CSVPaths {
		d.part([]byte(filepath.Base(p)))
		if err := d.file(p); err != nil {
			return 0, 0, wall, err
		}
	}
	return d.sum(), art.Records, wall, nil
}
