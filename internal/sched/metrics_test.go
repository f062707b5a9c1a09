package sched

import (
	"strings"
	"testing"
	"time"

	"slurmsight/internal/obs"
	"slurmsight/internal/tracegen"
)

// TestSimulatorMetrics runs the canonical backfill scenario with a
// registry attached and checks the sched_* instruments agree with the
// run's own statistics.
func TestSimulatorMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	reqs := []tracegen.Request{
		req("a", t0, 8, time.Hour, time.Hour),
		req("b", t0.Add(time.Second), 10, time.Hour, 30*time.Minute),
		req("c", t0.Add(2*time.Second), 2, 30*time.Minute, 20*time.Minute),
	}
	res := run(t, tinySystem(), reqs, func(cfg *Config) { cfg.Metrics = reg })

	if got := reg.Counter("sched_events_processed_total").Value(); got < int64(len(reqs)) {
		t.Errorf("sched_events_processed_total = %d, want ≥ %d (one per submit)", got, len(reqs))
	}
	if got := reg.Counter("sched_passes_total").Value(); got == 0 {
		t.Error("sched_passes_total = 0")
	}
	if got := reg.Counter("sched_backfill_starts_total").Value(); got != int64(res.Stats.Backfilled) {
		t.Errorf("sched_backfill_starts_total = %d, want %d", got, res.Stats.Backfilled)
	}
	if got := reg.Counter("sched_backfill_attempts_total").Value(); got < reg.Counter("sched_backfill_starts_total").Value() {
		t.Errorf("backfill attempts %d < starts", got)
	}
	if got := reg.Counter("sched_priority_refreshes_total").Value(); got <= 0 {
		t.Errorf("sched_priority_refreshes_total = %d, want > 0", got)
	}
	// Everything drained: the end-of-run gauges must read empty.
	if got := reg.Gauge("sched_queue_depth").Value(); got != 0 {
		t.Errorf("sched_queue_depth = %d at end of run", got)
	}
	if got := reg.Gauge("sched_jobs_running").Value(); got != 0 {
		t.Errorf("sched_jobs_running = %d at end of run", got)
	}
}

// phaseNs reads every sched_phase_ns_total{phase=…} a metered run
// published.
func phaseNs(reg *obs.Registry) (byName map[string]int64, sum int64) {
	byName = map[string]int64{}
	for _, name := range phaseNames {
		ns := reg.Counter(obs.Label("sched_phase_ns_total", "phase", name)).Value()
		byName[name] = ns
		sum += ns
	}
	return byName, sum
}

// TestPhasesAccountForTheRun checks the per-phase clock on a contended
// trace: the records are the unmetered run's, every phase that ran shows
// time, the phases sum to the run's wall within a tenth, and the
// pending-depth sum over the pass count is a mean depth of at least one
// job.
func TestPhasesAccountForTheRun(t *testing.T) {
	for _, sel := range []string{"pool", "firstfit"} {
		t.Run(sel, func(t *testing.T) {
			reg := obs.NewRegistry()
			cfg := DefaultConfig(tinySystem())
			cfg.Seed = 4242
			cfg.NodeSelect = sel
			cfg.Metrics = reg
			sim, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			reqs := ablationTrace(t)
			start := time.Now()
			res, err := sim.Run(reqs, Options{})
			if err != nil {
				t.Fatal(err)
			}
			wall := time.Since(start).Nanoseconds()

			// Metering observes; the schedule is the unmetered one.
			plain := runAblation(t, func(c *Config) { c.NodeSelect = sel })
			gotJobs, _, gotStats := goldenDigest(t, res)
			wantJobs, _, wantStats := goldenDigest(t, plain)
			if gotJobs != wantJobs || gotStats != wantStats {
				t.Errorf("metered run diverged from the unmetered one: jobs %#x vs %#x, stats %#x vs %#x",
					gotJobs, wantJobs, gotStats, wantStats)
			}

			phases, sum := phaseNs(reg)
			if diff := wall - sum; diff < 0 || diff > wall/10 {
				t.Errorf("phases sum to %d ns of a %d ns run: %v", sum, wall, phases)
			}
			// Nothing is published beyond the five phases Run passes through.
			published := 0
			for name := range reg.Snapshot() {
				if strings.HasPrefix(name, "sched_phase_ns_total{") {
					published++
				}
			}
			if published != 5 || len(phases) != 5 {
				t.Errorf("published %d phase counters for %d phases, want 5 and 5", published, len(phases))
			}
			for _, name := range []string{"events", "reprioritize", "main_pass", "backfill"} {
				if phases[name] <= 0 {
					t.Errorf("phase %s shows no time: %v", name, phases)
				}
			}
			// The pool selector does no work and is not timed.
			if got := phases["node_select"]; (got > 0) != (sel != "pool") {
				t.Errorf("node_select = %d ns under the %s selector", got, sel)
			}
			passes := reg.Counter("sched_passes_total").Value()
			if depth := reg.Counter("sched_pending_depth_sum").Value(); passes == 0 || depth < passes {
				t.Errorf("sched_pending_depth_sum %d over %d passes", depth, passes)
			}
		})
	}
}

// TestUnmeteredRunReadsNoClock pins the nil path: without Config.Metrics
// the simulator holds no phase clock and no timing selector, and the marks
// left in the event loop cost no allocation.
func TestUnmeteredRunReadsNoClock(t *testing.T) {
	cfg := DefaultConfig(tinySystem())
	cfg.NodeSelect = "firstfit"
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sim.clk != nil {
		t.Error("unmetered simulator holds a phase clock")
	}
	if _, timed := sim.sel.(timedSelector); timed {
		t.Error("unmetered simulator times its node selector")
	}
	allocs := testing.AllocsPerRun(100, func() {
		sim.clk.start()
		sim.clk.enter(phaseBackfill)
		sim.mDepthSum.Add(1)
		sim.mPops.Add(1)
		sim.mRefreshes.Add(1)
		sim.clk.publish(nil)
	})
	if allocs != 0 {
		t.Errorf("nil phase clock allocated %.0f times per pass", allocs)
	}
}

// passProbe wraps a backfill policy and records, for every pass that
// reached it, the free cores it started with and the jobs it popped.
type passProbe struct {
	BackfillPolicy
	free, pops []int
}

func (p *passProbe) Pass(s *Simulator, head *job, tNs int64) {
	free, before := s.freeCores, s.pops
	p.BackfillPolicy.Pass(s, head, tNs)
	p.free, p.pops = append(p.free, free), append(p.pops, int(s.pops-before))
}

// TestBackfillScanStopsWithNoFreeCores saturates the tiny machine with one
// whole-machine job, then queues five one-node jobs behind it, one a
// second. Each submit runs a pass whose head is blocked with no core free:
// the backfill scan behind it must pop nothing, under both policies that
// scan, and sched_pending_pops_total counts only the pops made — one per
// pass for the head, the big job's own, and the five started when it ends.
func TestBackfillScanStopsWithNoFreeCores(t *testing.T) {
	reqs := []tracegen.Request{req("big", t0, 10, 2*time.Hour, 2*time.Hour)}
	for i := 1; i <= 5; i++ {
		reqs = append(reqs, req("small", t0.Add(time.Duration(i)*time.Second), 1, time.Hour, time.Hour))
	}
	for _, bf := range []string{"easy", "conservative"} {
		t.Run(bf, func(t *testing.T) {
			reg := obs.NewRegistry()
			cfg := DefaultConfig(tinySystem())
			cfg.Backfill, cfg.Metrics = bf, reg
			sim, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			probe := &passProbe{BackfillPolicy: sim.bf}
			sim.bf = probe
			res, err := sim.Run(reqs, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Backfilled != 0 || res.Stats.JobsCompleted != len(reqs) {
				t.Fatalf("stats %+v, want every job completed and none backfilled", res.Stats)
			}
			// The second to fifth submits each queue behind a blocked head.
			if len(probe.free) != 4 {
				t.Fatalf("backfill ran %d passes, want 4", len(probe.free))
			}
			for i := range probe.free {
				if probe.free[i] != 0 || probe.pops[i] != 0 {
					t.Errorf("pass %d began with %d cores free and popped %d jobs, want 0 and 0", i, probe.free[i], probe.pops[i])
				}
			}
			if got, want := reg.Counter("sched_pending_pops_total").Value(), int64(1+5+5); got != want {
				t.Errorf("sched_pending_pops_total = %d, want %d", got, want)
			}
		})
	}
}
