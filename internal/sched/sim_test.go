package sched

import (
	"slices"
	"testing"
	"time"

	"slurmsight/internal/cluster"
	"slurmsight/internal/slurm"
	"slurmsight/internal/tracegen"
)

var t0 = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

// tinySystem returns a 10-node single-partition machine for hand-built
// scheduling scenarios.
func tinySystem() *cluster.System {
	s := &cluster.System{
		Name:         "tiny",
		Nodes:        10,
		CoresPerNode: 8,
		MemPerNode:   64 << 30,
		Partitions: []cluster.Partition{
			{Name: "batch", Nodes: 10, MaxWall: 24 * time.Hour, Default: true},
		},
		QOSLevels: []cluster.QOS{
			{Name: "normal"},
			{Name: "debug", PriorityWeight: 500_000},
		},
	}
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s
}

func req(user string, submit time.Time, nodes int, limit, runtime time.Duration) tracegen.Request {
	return tracegen.Request{
		User: user, Account: "prj001", Class: "test", JobName: "job",
		Partition: "batch", QOS: "normal",
		Submit: submit, Nodes: nodes, Timelimit: limit, TrueRuntime: runtime,
		Steps: 2, Outcome: slurm.StateCompleted,
	}
}

// rows is a run with its record stream collected, for the tests that index
// job and step rows.
type rows struct {
	*Result
	Jobs, Steps []slurm.Record
}

func collect(res *Result) *rows {
	jobs, steps := res.Collect()
	return &rows{res, jobs, steps}
}

func run(t *testing.T, sys *cluster.System, reqs []tracegen.Request, mutate func(*Config)) *rows {
	t.Helper()
	cfg := DefaultConfig(sys)
	if mutate != nil {
		mutate(&cfg)
	}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(reqs, Options{EmitSteps: true})
	if err != nil {
		t.Fatal(err)
	}
	return collect(res)
}

func findJob(res *rows, user string) *slurm.Record {
	for i := range res.Jobs {
		if res.Jobs[i].User == user {
			return &res.Jobs[i]
		}
	}
	return nil
}

func TestSingleJobRunsImmediately(t *testing.T) {
	res := run(t, tinySystem(), []tracegen.Request{
		req("alice", t0, 4, 2*time.Hour, time.Hour),
	}, nil)
	j := &res.Jobs[0]
	if !j.Start.Equal(t0) {
		t.Errorf("Start = %v, want %v", j.Start, t0)
	}
	if j.State != slurm.StateCompleted {
		t.Errorf("State = %v", j.State)
	}
	if j.Elapsed != time.Hour {
		t.Errorf("Elapsed = %v", j.Elapsed)
	}
	if !j.End.Equal(t0.Add(time.Hour)) {
		t.Errorf("End = %v", j.End)
	}
	if j.NCPUs != 4*8 || j.NNodes != 4 {
		t.Errorf("allocation: %d nodes, %d cpus", j.NNodes, j.NCPUs)
	}
	if j.Backfilled() {
		t.Error("uncontended job should not be backfilled")
	}
	if res.Stats.JobsCompleted != 1 {
		t.Errorf("Stats = %+v", res.Stats)
	}
}

func TestFIFOBlockingAndBackfill(t *testing.T) {
	// A takes 8 of 10 nodes for 1h; B (head) needs all 10; C is short and
	// small enough to backfill into the 2 free nodes without delaying B.
	reqs := []tracegen.Request{
		req("a", t0, 8, time.Hour, time.Hour),
		req("b", t0.Add(time.Second), 10, time.Hour, 30*time.Minute),
		req("c", t0.Add(2*time.Second), 2, 30*time.Minute, 20*time.Minute),
	}
	res := run(t, tinySystem(), reqs, nil)
	a, b, c := findJob(res, "a"), findJob(res, "b"), findJob(res, "c")
	if c.Start.IsZero() || !c.Start.Equal(t0.Add(2*time.Second)) {
		t.Errorf("c should backfill immediately, started %v", c.Start)
	}
	if !c.Backfilled() {
		t.Error("c should carry SchedBackfill")
	}
	if b.Backfilled() {
		t.Error("b is the blocked head, not a backfill")
	}
	if !b.Start.Equal(a.End) {
		t.Errorf("head start %v, want at A's end %v", b.Start, a.End)
	}
	if res.Stats.Backfilled != 1 {
		t.Errorf("Stats.Backfilled = %d", res.Stats.Backfilled)
	}
}

func TestBackfillDoesNotDelayHead(t *testing.T) {
	// C's limit (3h) would overrun the head's shadow time (1h) and it
	// needs nodes the head will use, so it must wait.
	reqs := []tracegen.Request{
		req("a", t0, 8, time.Hour, time.Hour),
		req("b", t0.Add(time.Second), 10, time.Hour, 30*time.Minute),
		req("c", t0.Add(2*time.Second), 2, 3*time.Hour, 10*time.Minute),
	}
	res := run(t, tinySystem(), reqs, nil)
	b, c := findJob(res, "b"), findJob(res, "c")
	if c.Start.Before(b.Start) {
		t.Errorf("c started %v before head %v despite overrunning the shadow", c.Start, b.Start)
	}
}

func TestBackfillExtraNodes(t *testing.T) {
	// A uses 6 nodes for 1h; head B needs 8. At A's end 10 free, extra =
	// 10-8 = 2. C wants 2 nodes for 10h: it fits in the extra nodes and
	// may run long without delaying B.
	reqs := []tracegen.Request{
		req("a", t0, 6, time.Hour, time.Hour),
		req("b", t0.Add(time.Second), 8, time.Hour, 30*time.Minute),
		req("c", t0.Add(2*time.Second), 2, 10*time.Hour, 9*time.Hour),
	}
	res := run(t, tinySystem(), reqs, nil)
	b, c := findJob(res, "b"), findJob(res, "c")
	if !c.Start.Equal(t0.Add(2 * time.Second)) {
		t.Errorf("c should start immediately in the extra nodes, got %v", c.Start)
	}
	if !c.Backfilled() {
		t.Error("c should be a backfill start")
	}
	if !b.Start.Equal(t0.Add(time.Hour)) {
		t.Errorf("head delayed to %v", b.Start)
	}
}

func TestBackfillDisabledAblation(t *testing.T) {
	reqs := []tracegen.Request{
		req("a", t0, 8, time.Hour, time.Hour),
		req("b", t0.Add(time.Second), 10, time.Hour, 30*time.Minute),
		req("c", t0.Add(2*time.Second), 1, 10*time.Minute, 5*time.Minute),
	}
	res := run(t, tinySystem(), reqs, func(c *Config) { c.Backfill = "none" })
	c := findJob(res, "c")
	if c.Start.Before(t0.Add(time.Hour)) {
		t.Errorf("with backfill off, c must wait for the head; started %v", c.Start)
	}
	if res.Stats.Backfilled != 0 {
		t.Errorf("Backfilled = %d with backfill disabled", res.Stats.Backfilled)
	}
}

func TestTimeoutEnforced(t *testing.T) {
	r := req("alice", t0, 2, time.Hour, 3*time.Hour)
	r.Outcome = slurm.StateTimeout
	res := run(t, tinySystem(), []tracegen.Request{r}, nil)
	j := &res.Jobs[0]
	if j.State != slurm.StateTimeout {
		t.Errorf("State = %v, want TIMEOUT", j.State)
	}
	if j.Elapsed != time.Hour {
		t.Errorf("Elapsed = %v, want the limit", j.Elapsed)
	}
	if res.Stats.JobsTimeout != 1 {
		t.Errorf("Stats = %+v", res.Stats)
	}
}

func TestCancelWhilePending(t *testing.T) {
	blocker := req("a", t0, 10, 2*time.Hour, 2*time.Hour)
	victim := req("b", t0.Add(time.Second), 10, time.Hour, time.Hour)
	victim.Outcome = slurm.StateCancelled
	victim.CancelAfter = 10 * time.Minute
	res := run(t, tinySystem(), []tracegen.Request{blocker, victim}, nil)
	j := findJob(res, "b")
	if j.State != slurm.StateCancelled {
		t.Errorf("State = %v", j.State)
	}
	if !j.Start.IsZero() {
		t.Errorf("cancelled-pending job has Start %v", j.Start)
	}
	if !j.End.Equal(t0.Add(time.Second + 10*time.Minute)) {
		t.Errorf("End = %v", j.End)
	}
	if _, ok := j.WaitTime(); ok {
		t.Error("never-started job must not report a wait")
	}
	if res.Stats.NeverStarted != 1 {
		t.Errorf("NeverStarted = %d", res.Stats.NeverStarted)
	}
}

func TestCancelWhileRunning(t *testing.T) {
	r := req("alice", t0, 2, 2*time.Hour, 2*time.Hour)
	r.Outcome = slurm.StateCancelled
	r.CancelAfter = 30 * time.Minute
	res := run(t, tinySystem(), []tracegen.Request{r}, nil)
	j := &res.Jobs[0]
	if j.State != slurm.StateCancelled {
		t.Errorf("State = %v", j.State)
	}
	if j.Elapsed != 30*time.Minute {
		t.Errorf("Elapsed = %v", j.Elapsed)
	}
}

func TestCancelAfterCompletionCompletes(t *testing.T) {
	r := req("alice", t0, 2, 2*time.Hour, 10*time.Minute)
	r.Outcome = slurm.StateCancelled
	r.CancelAfter = 5 * time.Hour // cancel arrives after natural end
	res := run(t, tinySystem(), []tracegen.Request{r}, nil)
	if st := res.Jobs[0].State; st != slurm.StateCompleted {
		t.Errorf("State = %v, want COMPLETED", st)
	}
}

func TestFailedJobDiesEarly(t *testing.T) {
	r := req("alice", t0, 2, 2*time.Hour, time.Hour)
	r.Outcome = slurm.StateFailed
	r.FailFrac = 0.5
	res := run(t, tinySystem(), []tracegen.Request{r}, nil)
	j := &res.Jobs[0]
	if j.State != slurm.StateFailed {
		t.Errorf("State = %v", j.State)
	}
	if j.Elapsed != 30*time.Minute {
		t.Errorf("Elapsed = %v, want half the true runtime", j.Elapsed)
	}
	if j.ExitCode == 0 {
		t.Error("failed job should carry a nonzero exit code")
	}
}

func TestDebugQOSJumpsQueue(t *testing.T) {
	// Machine busy; two jobs queue at the same instant. The debug-QOS job
	// must start first despite arriving second.
	blocker := req("x", t0, 10, time.Hour, time.Hour)
	normal := req("a", t0.Add(time.Second), 10, time.Hour, 10*time.Minute)
	debug := req("b", t0.Add(2*time.Second), 10, time.Hour, 10*time.Minute)
	debug.QOS = "debug"
	res := run(t, tinySystem(), []tracegen.Request{blocker, normal, debug}, nil)
	a, b := findJob(res, "a"), findJob(res, "b")
	if !b.Start.Before(a.Start) {
		t.Errorf("debug job started %v, normal %v; want debug first", b.Start, a.Start)
	}
	if b.Priority <= a.Priority {
		t.Errorf("debug priority %d ≤ normal %d", b.Priority, a.Priority)
	}
}

func TestFairShareDecaysPriority(t *testing.T) {
	cfg := DefaultConfig(tinySystem())
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(user string, nodes int) *job {
		r := req(user, t0, nodes, time.Hour, time.Hour)
		return &job{req: &r, cores: int32(nodes * 8)}
	}
	heavy, light := mk("heavy", 2), mk("light", 2)
	// Accrue a large usage history for heavy.
	hj := mk("heavy", 10)
	hj.start = t0.Add(-2 * time.Hour).UnixNano()
	hj.end = t0.UnixNano()
	// Several machine-hours of history.
	for i := 0; i < 50; i++ {
		sim.accrueUsage(hj)
	}
	ph := sim.priorityAt(heavy, t0.UnixNano())
	pl := sim.priorityAt(light, t0.UnixNano())
	if ph >= pl {
		t.Errorf("heavy user priority %d ≥ light %d", ph, pl)
	}
	// And the penalty decays: far in the future they converge.
	later := t0.Add(20 * 7 * 24 * time.Hour)
	heavy.req.Submit = later
	light.req.Submit = later
	ph2 := sim.priorityAt(heavy, later.UnixNano())
	pl2 := sim.priorityAt(light, later.UnixNano())
	if pl2-ph2 >= pl-ph {
		t.Errorf("fair-share penalty did not decay: %d vs %d", pl2-ph2, pl-ph)
	}
}

func TestStepsStructure(t *testing.T) {
	r := req("alice", t0, 4, 2*time.Hour, time.Hour)
	r.Steps = 5
	res := run(t, tinySystem(), []tracegen.Request{r}, nil)
	if len(res.Steps) != 7 { // batch + extern + 5 numbered
		t.Fatalf("steps = %d, want 7", len(res.Steps))
	}
	if o := slices.Collect(res.Outcomes)[0]; o.Steps != 7 || res.StepRows() != 7 {
		t.Errorf("outcome plans %d steps, StepRows = %d", o.Steps, res.StepRows())
	}
	job := &res.Jobs[0]
	var batch, extern int
	var prevEnd time.Time
	for i := range res.Steps {
		st := &res.Steps[i]
		if !st.ID.IsStep() || st.ID.Job != job.ID.Job {
			t.Errorf("step %v does not belong to job %v", st.ID, job.ID)
		}
		if st.Start.Before(job.Start) || st.End.After(job.End) {
			t.Errorf("step %v outside job window", st.ID)
		}
		switch st.ID.Kind {
		case slurm.StepBatch:
			batch++
			if st.NNodes != 1 {
				t.Errorf("batch step on %d nodes", st.NNodes)
			}
		case slurm.StepExtern:
			extern++
		case slurm.StepNumbered:
			if !prevEnd.IsZero() && st.Start.Before(prevEnd) {
				t.Errorf("numbered steps overlap: %v starts before %v", st.ID, prevEnd)
			}
			prevEnd = st.End
		}
	}
	if batch != 1 || extern != 1 {
		t.Errorf("batch=%d extern=%d", batch, extern)
	}
}

func TestFailureShowsOnFinalStep(t *testing.T) {
	r := req("alice", t0, 2, 2*time.Hour, time.Hour)
	r.Outcome = slurm.StateOutOfMemory
	r.FailFrac = 0.8
	r.Steps = 3
	res := run(t, tinySystem(), []tracegen.Request{r}, nil)
	var last *slurm.Record
	for i := range res.Steps {
		st := &res.Steps[i]
		if st.ID.Kind == slurm.StepNumbered && (last == nil || st.ID.Step > last.ID.Step) {
			last = st
		}
	}
	if last == nil || last.State != slurm.StateOutOfMemory {
		t.Errorf("final numbered step state = %v", last.State)
	}
}

func TestNoStepsWhenDisabled(t *testing.T) {
	cfg := DefaultConfig(tinySystem())
	sim, _ := New(cfg)
	res, err := sim.Run([]tracegen.Request{req("a", t0, 1, time.Hour, time.Minute)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, steps := res.Collect(); len(steps) != 0 || res.StepRows() != 0 {
		t.Errorf("steps materialized despite EmitSteps=false")
	}
	if o := slices.Collect(res.Outcomes)[0]; o.Steps != 4 { // 2 numbered + batch + extern
		t.Errorf("outcome plans %d steps, want 4", o.Steps)
	}
}

func TestRunErrors(t *testing.T) {
	cfg := DefaultConfig(tinySystem())
	sim, _ := New(cfg)
	if _, err := sim.Run(nil, Options{}); err == nil {
		t.Error("empty request stream: want error")
	}
	sim2, _ := New(cfg)
	bad := req("a", t0, 99, time.Hour, time.Minute)
	if _, err := sim2.Run([]tracegen.Request{bad}, Options{}); err == nil {
		t.Error("oversized request: want error")
	}
	sim3, _ := New(cfg)
	noLimit := req("a", t0, 1, 0, time.Minute)
	if _, err := sim3.Run([]tracegen.Request{noLimit}, Options{}); err == nil {
		t.Error("missing timelimit: want error")
	}
	badCfg := DefaultConfig(tinySystem())
	badCfg.AgeMax = 0
	if _, err := New(badCfg); err == nil {
		t.Error("invalid config: want error")
	}
}

func TestDeterminism(t *testing.T) {
	phases := []tracegen.Phase{{
		Profile: scaled(tracegen.FrontierProfile(), 80, 40),
		Start:   t0, End: t0.AddDate(0, 0, 7),
	}}
	reqs, err := tracegen.Generate(phases, 21)
	if err != nil {
		t.Fatal(err)
	}
	runOnce := func() *rows {
		cfg := DefaultConfig(cluster.Frontier())
		sim, _ := New(cfg)
		res, err := sim.Run(reqs, Options{EmitSteps: true})
		if err != nil {
			t.Fatal(err)
		}
		return collect(res)
	}
	a, b := runOnce(), runOnce()
	if len(a.Jobs) != len(b.Jobs) || len(a.Steps) != len(b.Steps) {
		t.Fatalf("sizes differ")
	}
	for i := range a.Jobs {
		x, y := a.Jobs[i], b.Jobs[i]
		if x.ID != y.ID || !x.Start.Equal(y.Start) || x.State != y.State || x.Priority != y.Priority {
			t.Fatalf("job %d differs: %v vs %v", i, x.ID, y.ID)
		}
	}
}

func scaled(p tracegen.Profile, jobsPerDay float64, users int) tracegen.Profile {
	p.JobsPerDay = jobsPerDay
	p.Users = users
	return p
}

// TestFrontierWorkloadInvariants is the integration test: a two-week
// Frontier-profile workload through the full scheduler.
func TestFrontierWorkloadInvariants(t *testing.T) {
	phases := []tracegen.Phase{{
		Profile: scaled(tracegen.FrontierProfile(), 150, 80),
		Start:   t0, End: t0.AddDate(0, 0, 14),
	}}
	reqs, err := tracegen.Generate(phases, 99)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(cluster.Frontier())
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := sim.Run(reqs, Options{EmitSteps: true})
	if err != nil {
		t.Fatal(err)
	}
	res := collect(raw)
	if len(res.Jobs) != len(reqs) {
		t.Fatalf("jobs %d != requests %d", len(res.Jobs), len(reqs))
	}
	backfilled := 0
	for i := range res.Jobs {
		j := &res.Jobs[i]
		if !j.State.Terminal() {
			t.Fatalf("job %v not terminal: %v", j.ID, j.State)
		}
		if !j.Start.IsZero() {
			if j.Start.Before(j.Submit) {
				t.Fatalf("job %v started before submission", j.ID)
			}
			if j.Elapsed > j.Timelimit {
				t.Fatalf("job %v exceeded its limit: %v > %v", j.ID, j.Elapsed, j.Timelimit)
			}
			if j.End.Sub(j.Start) != j.Elapsed {
				t.Fatalf("job %v elapsed inconsistent", j.ID)
			}
		} else if j.State != slurm.StateCancelled {
			t.Fatalf("never-started job %v in state %v", j.ID, j.State)
		}
		if j.Backfilled() {
			backfilled++
		}
	}
	if backfilled == 0 {
		t.Error("a contended two-week workload should backfill some jobs")
	}
	util := res.Stats.Utilization()
	if util <= 0 || util > 1 {
		t.Errorf("utilization = %v", util)
	}
	if res.Stats.MeanWait() < 0 {
		t.Errorf("negative mean wait")
	}
	// Step volume dominates job volume (Figure 1 shape).
	if len(res.Steps) < 5*len(res.Jobs) {
		t.Errorf("steps %d vs jobs %d: expected step-dominated trace", len(res.Steps), len(res.Jobs))
	}
}
