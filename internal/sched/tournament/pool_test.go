package tournament

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"slurmsight/internal/cluster"
	"slurmsight/internal/sched"
	"slurmsight/internal/sched/schedtest"
	"slurmsight/internal/slurm"
	"slurmsight/internal/tracegen"
)

// Every run gives its scratch back before it returns, and a scored arm
// its job arena (sched.Result.Release), so the next simulation, in this
// Field or another, sized for this trace or not, runs in them. These
// tests hold every pooled scorecard to fresh runs that take nothing from
// the pools.

// drainRunPools empties sync.Pools: what is put in one survives a
// collection in its victim cache and is gone after the second.
func drainRunPools() {
	runtime.GC()
	runtime.GC()
}

// freshScorecard scores specs on runs of their own storage: the pools are
// drained before each run, and no result is released.
func freshScorecard(t *testing.T, specs []Spec, reqs []tracegen.Request, sys *cluster.System, seed int64) []byte {
	t.Helper()
	sc := &Scorecard{Schema: Schema, Trace: TraceInfo{System: sys.Name, Requests: len(reqs), Seed: seed}}
	for _, sp := range specs {
		drainRunPools()
		cfg, err := sp.Config(sys, seed)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := sched.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(reqs, sched.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ps := score(res)
		ps.Name, ps.Spec = sp.Name, sp
		sc.Policies = append(sc.Policies, ps)
	}
	return encodeStripped(t, sc)
}

// fieldScorecard runs specs on a new Field, through the pool.
func fieldScorecard(t *testing.T, specs []Spec, reqs []tracegen.Request, sys *cluster.System, seed int64) []byte {
	t.Helper()
	sc, err := NewField(reqs, sys, seed, nil, nil).Run(specs)
	if err != nil {
		t.Error(err)
		return nil
	}
	return encodeStripped(t, sc)
}

var poolSpecs = []Spec{
	{Name: "default"},
	{Name: "fifo", Preset: "fifo"},
	{Name: "conservative", Backfill: "conservative"},
	{Name: "no-backfill", Backfill: "none"},
}

// TestPooledRunsMatchFreshAcrossSizes runs a large trace, a smaller one in
// the large run's storage, and the large one again: each scorecard is the
// bytes of fresh runs.
func TestPooledRunsMatchFreshAcrossSizes(t *testing.T) {
	sys := testSystem()
	large, small := traceOfDays(t, sys, 6), traceOfDays(t, sys, 2)
	if len(small) >= len(large) {
		t.Fatalf("small trace has %d requests, large %d", len(small), len(large))
	}
	wantLarge := freshScorecard(t, poolSpecs, large, sys, 31)
	wantSmall := freshScorecard(t, poolSpecs, small, sys, 31)
	for _, step := range []struct {
		what string
		reqs []tracegen.Request
		want []byte
	}{
		{"large", large, wantLarge},
		{"small after large", small, wantSmall},
		{"large after small", large, wantLarge},
	} {
		if got := fieldScorecard(t, poolSpecs, step.reqs, sys, 31); !bytes.Equal(got, step.want) {
			t.Errorf("%s: pooled scorecard differs from fresh runs:\n--- pooled\n%s\n--- fresh\n%s", step.what, got, step.want)
		}
	}
}

// TestConcurrentFieldsShareThePool runs two Fields at once, over traces of
// different sizes, several times each. The race detector checks that no
// two runs share storage; the bytes check what they computed.
func TestConcurrentFieldsShareThePool(t *testing.T) {
	sys := testSystem()
	traces := [][]tracegen.Request{traceOfDays(t, sys, 5), traceOfDays(t, sys, 2)}
	want := make([][]byte, len(traces))
	for i, reqs := range traces {
		want[i] = freshScorecard(t, poolSpecs, reqs, sys, 31)
	}
	var wg sync.WaitGroup
	for i, reqs := range traces {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range 3 {
				if got := fieldScorecard(t, poolSpecs, reqs, sys, 31); !bytes.Equal(got, want[i]) {
					t.Errorf("trace %d, round %d: pooled scorecard differs from fresh runs", i, round)
				}
			}
		}()
	}
	wg.Wait()
}

// TestScorecardIndependentOfWorkers scores one field on one worker and on
// four: the same bytes as fresh runs either way.
func TestScorecardIndependentOfWorkers(t *testing.T) {
	sys := testSystem()
	reqs := testTrace(t, sys)
	specs := DefaultSpecs()
	want := freshScorecard(t, specs, reqs, sys, 31)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		if got := fieldScorecard(t, specs, reqs, sys, 31); !bytes.Equal(got, want) {
			t.Errorf("GOMAXPROCS=%d: scorecard differs from fresh runs:\n--- field\n%s\n--- fresh\n%s", procs, got, want)
		}
	}
}

// TestReleasedResultPanics checks that a released Result refuses every
// read of its jobs rather than reading as an empty run, keeps its Stats,
// and takes a second Release as a no-op.
func TestReleasedResultPanics(t *testing.T) {
	sys := testSystem()
	cfg, err := (&Spec{Name: "default"}).Config(sys, 31)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := sched.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(testTrace(t, sys), sched.Options{EmitSteps: true})
	if err != nil {
		t.Fatal(err)
	}
	stats := res.Stats
	res.Release()
	res.Release()
	if res.Stats != stats {
		t.Errorf("Release changed Stats: %+v, was %+v", res.Stats, stats)
	}
	for name, read := range map[string]func(){
		"Len":        func() { res.Len() },
		"StepRows":   func() { res.StepRows() },
		"Outcomes":   func() { res.Outcomes(func(sched.Outcome) bool { return true }) },
		"Records":    func() { res.Records(func(*slurm.Record) bool { return true }) },
		"JobRecords": func() { res.JobRecords(0, 1)(func(*slurm.Record) bool { return true }) },
		"Collect":    func() { res.Collect() },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "after Release") {
					t.Errorf("%s on a released Result: panic %q, want one naming Release", name, msg)
				}
			}()
			read()
		}()
	}
}

// TestPoolsKeepNoRequestAlive checks that the storage the pools keep holds
// no pointer into the requests a run read: a run's scratch once Run has
// returned, and its job arena once the Result is released. The requests
// are garbage at the first collection after their Result is released, or
// dropped unreleased, while that storage still sits in the pools.
func TestPoolsKeepNoRequestAlive(t *testing.T) {
	sys := testSystem()
	cfg, err := (&Spec{Name: "default"}).Config(sys, 31)
	if err != nil {
		t.Fatal(err)
	}
	for _, release := range []bool{true, false} {
		freed := make(chan struct{})
		func() {
			reqs := testTrace(t, sys)
			runtime.SetFinalizer(&reqs[0], func(*tracegen.Request) { close(freed) })
			sim, err := sched.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(reqs, sched.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if release {
				res.Release()
			}
		}()
		runtime.GC()
		select {
		case <-freed:
		case <-time.After(5 * time.Second):
			t.Fatalf("released %v: the requests outlived a collection; pooled storage still points into them", release)
		}
	}
}

// TestWarmArmAllocationCeiling pins what an arm costs once an earlier
// tournament has left its run storage in the pool: a second Field's arm
// over the golden Frontier trace allocates only its score, its result and
// the run's maps. Measured about 50 B per request; a cold run is 266 B
// (sched's TestRunAllocationCeiling), and an arm that drops its storage
// lands there. The trace's reservation tag is cleared: a Field's specs
// declare no reservation.
func TestWarmArmAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("-race drops a share of what is put in a sync.Pool")
	}
	const maxBytesPerReq = 80
	reqs := schedtest.FrontierTrace(t)
	for i := range reqs {
		reqs[i].Reservation = ""
	}
	sys := schedtest.FrontierConfig().System
	specs := []Spec{{Name: "default"}}
	// Stores of earlier tests' smaller traces would have to grow: start
	// from an empty pool, which the first tournament fills.
	drainRunPools()
	if _, err := NewField(reqs, sys, 7, nil, nil).Run(specs); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := NewField(reqs, sys, 7, nil, nil).Run(specs); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perReq := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(reqs))
	t.Logf("%d requests: %.0f B per request on a warm arm", len(reqs), perReq)
	if perReq > maxBytesPerReq {
		t.Errorf("a warm arm allocated %.0f B per request, ceiling %d", perReq, maxBytesPerReq)
	}
}
