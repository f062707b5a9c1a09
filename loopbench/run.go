package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"slurmsight/internal/obs"
)

// runConfig is one invocation's arguments.
type runConfig struct {
	workload string
	seed     int64
	traced   bool
	outDir   string // loopbench/out
	tamper   bool   // tests only: corrupt every reference so each output check must fail
}

// env is what a run's phases share: sizes, the scratch directory, the
// harness tracer (nil when untraced) and the fixtures setup built.
type env struct {
	cfg  runConfig
	sz   *sizes
	dir  string
	tr   *obs.Tracer
	root *obs.Span

	flow, contended *fixture

	coldS      float64
	coldFailed bool
	digests    map[string]string

	// references, made once after the first loop and reused by a traced
	// run's second session
	batchWant  uint64
	readWant   []uint64 // per key of the read mix
	evolveWant [][]byte
}

// session is a workload opened against process state of its own (a
// fresh store, server, advisor): loop runs the fixed work once, and a
// traced run opens a second session for its second loop.
type session interface {
	loop(parent *obs.Span) loopStats
	// verify runs the checks too heavy for the measured loop (a
	// reference run, a final row count) and adds their failures.
	verify(st *loopStats) error
	close()
}

// loopStats is what one loop reports.
type loopStats struct {
	opMS      []float64 // wall time per op, in completion order
	work      int64     // work units of the ops that completed
	failed    int
	firstFail string
	counts    map[string]int64 // the program's own counters, where they repeat exactly for a seed
}

func (st *loopStats) fail(format string, args ...any) {
	st.failed++
	if st.firstFail == "" {
		st.firstFail = fmt.Sprintf(format, args...)
	}
}

type workloadImpl struct {
	open func(e *env) (session, error)
	// coldIsFirstOp: cold_s is the loop's first op (nothing in the
	// process has run the workload's code before it). The serve
	// workloads measure theirs in open, on fresh stores and servers.
	coldIsFirstOp bool
}

var impls = map[string]workloadImpl{
	"batch-flow":   {openBatch, true},
	"serve-read":   {openRead, false},
	"serve-live":   {openLive, false},
	"sched-evolve": {openEvolve, true},
}

// measured is one loop bracketed by the process cost meters.
type measured struct {
	loopStats
	wall       time.Duration
	cpu        time.Duration
	allocBytes uint64
	liveHeapMB float64
}

func measure(s session, parent *obs.Span) (measured, error) {
	runtime.GC() // every loop starts from a collected heap
	sp := parent.Child("loop")
	u0 := readUsage()
	st := s.loop(sp)
	u1 := readUsage()
	sp.End()
	m := measured{
		loopStats:  st,
		wall:       u1.wall.Sub(u0.wall),
		cpu:        u1.cpu - u0.cpu,
		allocBytes: u1.allocB - u0.allocB,
		liveHeapMB: liveHeapMB(), // session still open: store, cache and bundle are reachable
	}
	runtime.KeepAlive(s)
	err := s.verify(&m.loopStats)
	return m, err
}

// run executes one benchmark invocation and returns its result.
func run(cfg runConfig, sz *sizes) (*result, error) {
	started := time.Now()
	impl, ok := impls[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames())
	}
	e := &env{cfg: cfg, sz: sz, digests: map[string]string{}}
	e.dir = filepath.Join(cfg.outDir, fmt.Sprintf("run-%s-seed%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.dir)
	if cfg.traced {
		e.tr = obs.NewTracer()
		e.root = e.tr.Start("loopbench." + cfg.workload)
	}

	// setup: build both fixtures, timed. Every run builds both, whatever
	// the workload reads, so setup_s is one number with one meaning: a
	// change to any layer on the build path shows on every workload.
	sp := e.root.Child("setup")
	t0 := time.Now()
	var err error
	if e.flow, err = buildFixture(sz.flowSpec(cfg.seed), e.dir, sp); err == nil {
		e.contended, err = buildFixture(sz.contendedSpec(cfg.seed), e.dir, sp)
	}
	setupS := time.Since(t0).Seconds()
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}

	res := newResult(e)
	res.SetupS = setupS

	// cold, then the untraced loop: every end-to-end number comes from
	// here, in traced runs too (they only use it as the overhead base).
	s, err := impl.open(e)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	plain, err := measure(s, nil)
	s.close()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if impl.coldIsFirstOp {
		e.coldS = plain.opMS[0] / 1000
	}
	res.fill(e, plain)

	if cfg.traced {
		s, err := impl.open(e)
		if err != nil {
			return nil, fmt.Errorf("%s (traced session): %w", cfg.workload, err)
		}
		traced, err := measure(s, e.root)
		s.close()
		if err != nil {
			return nil, fmt.Errorf("%s (traced session): %w", cfg.workload, err)
		}
		layers, err := probeLayers(e)
		if err != nil {
			return nil, fmt.Errorf("layer probe: %w", err)
		}
		e.root.End()
		if err := res.fillTraced(e, plain, traced, layers); err != nil {
			return nil, err
		}
	}
	// What the acceptance driver's time cap is spent on, less process
	// start and the result files.
	res.Diagnostics["run_wall_s"] = time.Since(started).Seconds()
	return res, nil
}
