package sched

import (
	"testing"
	"time"

	"slurmsight/internal/cluster"
	"slurmsight/internal/slurm"
	"slurmsight/internal/tracegen"
)

// preemptSystem is tinySystem plus preemption-enabled QoS levels.
func preemptSystem() *cluster.System {
	s := tinySystem()
	s.QOSLevels = append(s.QOSLevels,
		cluster.QOS{Name: "urgent", PriorityWeight: 500_000, CanPreempt: true},
		cluster.QOS{Name: "preemptible", PriorityWeight: -100_000, Preemptible: true},
	)
	return s
}

// --- dependency chains ---

func chainReq(user string, pos int, chain int64, submit time.Time,
	nodes int, limit, runtime time.Duration) tracegen.Request {
	r := req(user, submit, nodes, limit, runtime)
	r.Chain, r.ChainPos = chain, pos
	return r
}

func TestChainRunsSequentially(t *testing.T) {
	reqs := []tracegen.Request{
		chainReq("a", 0, 1, t0, 2, time.Hour, 30*time.Minute),
		chainReq("a", 1, 1, t0, 2, time.Hour, 20*time.Minute),
		chainReq("a", 2, 1, t0, 2, time.Hour, 10*time.Minute),
	}
	res := run(t, tinySystem(), reqs, nil)
	if len(res.Jobs) != 3 {
		t.Fatalf("jobs = %d", len(res.Jobs))
	}
	for i := range res.Jobs {
		j := &res.Jobs[i]
		if j.State != slurm.StateCompleted {
			t.Fatalf("job %d state %v", i, j.State)
		}
	}
	// Each stage starts when its predecessor ends.
	if !res.Jobs[1].Start.Equal(res.Jobs[0].End) {
		t.Errorf("stage 1 started %v, predecessor ended %v", res.Jobs[1].Start, res.Jobs[0].End)
	}
	if !res.Jobs[2].Start.Equal(res.Jobs[1].End) {
		t.Errorf("stage 2 started %v, predecessor ended %v", res.Jobs[2].Start, res.Jobs[1].End)
	}
	// Eligibility and dependency metadata land in the records.
	if !res.Jobs[1].Eligible.Equal(res.Jobs[0].End) {
		t.Errorf("stage 1 eligible %v, want predecessor end", res.Jobs[1].Eligible)
	}
	if res.Jobs[1].Dependency != "afterok:"+res.Jobs[0].ID.String() {
		t.Errorf("Dependency = %q", res.Jobs[1].Dependency)
	}
	if res.Jobs[0].Dependency != "" {
		t.Errorf("chain head carries a dependency: %q", res.Jobs[0].Dependency)
	}
}

func TestChainFailureCascades(t *testing.T) {
	head := chainReq("a", 0, 1, t0, 2, time.Hour, 30*time.Minute)
	head.Outcome = slurm.StateFailed
	head.FailFrac = 0.5
	reqs := []tracegen.Request{
		head,
		chainReq("a", 1, 1, t0, 2, time.Hour, 20*time.Minute),
		chainReq("a", 2, 1, t0, 2, time.Hour, 10*time.Minute),
	}
	res := run(t, tinySystem(), reqs, nil)
	if res.Jobs[0].State != slurm.StateFailed {
		t.Fatalf("head state %v", res.Jobs[0].State)
	}
	for i := 1; i < 3; i++ {
		j := &res.Jobs[i]
		if j.State != slurm.StateCancelled {
			t.Errorf("dependent %d state %v, want CANCELLED", i, j.State)
		}
		if !j.Start.IsZero() {
			t.Errorf("dependent %d ran despite failed upstream", i)
		}
		if j.Reason != "DependencyNeverSatisfied" {
			t.Errorf("dependent %d reason %q", i, j.Reason)
		}
	}
	if res.Stats.DependencyCancelled != 2 {
		t.Errorf("DependencyCancelled = %d", res.Stats.DependencyCancelled)
	}
}

func TestChainIndependentOfQueueOrder(t *testing.T) {
	// A later-submitted independent job must not be blocked by a held
	// chain stage, and the chain stage must not run before its
	// predecessor even when nodes are free.
	reqs := []tracegen.Request{
		chainReq("a", 0, 1, t0, 8, time.Hour, time.Hour),
		chainReq("a", 1, 1, t0, 8, time.Hour, 30*time.Minute),
		req("b", t0.Add(time.Minute), 2, time.Hour, 10*time.Minute),
	}
	res := run(t, tinySystem(), reqs, nil)
	b := findJob(res, "b")
	if !b.Start.Equal(t0.Add(time.Minute)) {
		t.Errorf("independent job blocked until %v", b.Start)
	}
	stage1 := &res.Jobs[1]
	if stage1.Start.Before(res.Jobs[0].End) {
		t.Errorf("chain stage started %v before predecessor end %v", stage1.Start, res.Jobs[0].End)
	}
}

// --- preemption ---

func TestUrgentPreemptsPreemptible(t *testing.T) {
	victim := req("victim", t0, 10, 4*time.Hour, 4*time.Hour)
	victim.QOS = "preemptible"
	urgent := req("urgent", t0.Add(30*time.Minute), 6, time.Hour, 30*time.Minute)
	urgent.QOS = "urgent"
	res := run(t, preemptSystem(), []tracegen.Request{victim, urgent}, nil)
	u, v := findJob(res, "urgent"), findJob(res, "victim")
	if !u.Start.Equal(t0.Add(30 * time.Minute)) {
		t.Errorf("urgent job queued until %v instead of preempting", u.Start)
	}
	if v.Restarts != 1 {
		t.Errorf("victim restarts = %d, want 1", v.Restarts)
	}
	if v.State != slurm.StateCompleted {
		t.Errorf("victim final state %v; it should finish after requeue", v.State)
	}
	// The victim's second run starts after the urgent job ends.
	if v.Start.Before(u.End) {
		t.Errorf("victim restarted %v before urgent finished %v", v.Start, u.End)
	}
	if v.Suspended != 30*time.Minute {
		t.Errorf("victim lost time = %v, want 30m recorded as Suspended", v.Suspended)
	}
	if res.Stats.Preemptions != 1 || res.Stats.PreemptedLost != 30*time.Minute {
		t.Errorf("stats = %+v", res.Stats)
	}
}

func TestUrgentDoesNotPreemptNormalJobs(t *testing.T) {
	blocker := req("normal", t0, 10, 2*time.Hour, 2*time.Hour) // normal QoS
	urgent := req("urgent", t0.Add(time.Minute), 6, time.Hour, 30*time.Minute)
	urgent.QOS = "urgent"
	res := run(t, preemptSystem(), []tracegen.Request{blocker, urgent}, nil)
	u := findJob(res, "urgent")
	if u.Start.Before(t0.Add(2 * time.Hour)) {
		t.Errorf("urgent job preempted a non-preemptible job (started %v)", u.Start)
	}
	if res.Stats.Preemptions != 0 {
		t.Errorf("Preemptions = %d", res.Stats.Preemptions)
	}
}

func TestPreemptionAllOrNothing(t *testing.T) {
	// Preemptible work frees only 4 nodes; urgent needs 8 beyond free 0.
	// Nothing must be evicted pointlessly.
	a := req("a", t0, 6, 4*time.Hour, 4*time.Hour) // normal, not evictable
	b := req("b", t0, 4, 4*time.Hour, 4*time.Hour)
	b.QOS = "preemptible"
	urgent := req("urgent", t0.Add(time.Minute), 8, time.Hour, 30*time.Minute)
	urgent.QOS = "urgent"
	res := run(t, preemptSystem(), []tracegen.Request{a, b, urgent}, nil)
	if res.Stats.Preemptions != 0 {
		t.Errorf("partial eviction happened: %d", res.Stats.Preemptions)
	}
	v := findJob(res, "b")
	if v.Restarts != 0 {
		t.Errorf("victim restarted pointlessly")
	}
}

func TestPreemptionEvictsYoungestFirst(t *testing.T) {
	old := req("old", t0, 5, 6*time.Hour, 6*time.Hour)
	old.QOS = "preemptible"
	young := req("young", t0.Add(time.Hour), 5, 6*time.Hour, 6*time.Hour)
	young.QOS = "preemptible"
	urgent := req("urgent", t0.Add(2*time.Hour), 5, time.Hour, 30*time.Minute)
	urgent.QOS = "urgent"
	res := run(t, preemptSystem(), []tracegen.Request{old, young, urgent}, nil)
	if findJob(res, "young").Restarts != 1 {
		t.Error("youngest preemptible job should be the victim")
	}
	if findJob(res, "old").Restarts != 0 {
		t.Error("older job evicted despite a younger candidate")
	}
}

// --- reservations ---

func TestReservationHonored(t *testing.T) {
	window := Reservation{
		Name:  "beamtime",
		Nodes: 4,
		Start: t0.Add(time.Hour),
		End:   t0.Add(3 * time.Hour),
	}
	inRes := req("nrt", t0, 2, 30*time.Minute, 20*time.Minute)
	inRes.Reservation = "beamtime"
	res := run(t, tinySystem(), []tracegen.Request{inRes}, func(c *Config) {
		c.Reservations = []Reservation{window}
	})
	j := findJob(res, "nrt")
	// Submitted before the window: must wait for it even on an idle
	// machine.
	if !j.Start.Equal(window.Start) {
		t.Errorf("reservation job started %v, want window start %v", j.Start, window.Start)
	}
	if j.Reservation != "beamtime" || j.ReservationID != 1 {
		t.Errorf("reservation metadata: %q / %d", j.Reservation, j.ReservationID)
	}
	if res.Stats.ReservationStarts != 1 {
		t.Errorf("ReservationStarts = %d", res.Stats.ReservationStarts)
	}
}

func TestReservationCapacityIsCarvedOut(t *testing.T) {
	// During the window, general jobs can use at most 10-4 = 6 nodes.
	window := Reservation{Name: "beamtime", Nodes: 4, Start: t0, End: t0.Add(4 * time.Hour)}
	big := req("big", t0.Add(time.Minute), 8, time.Hour, 30*time.Minute)
	res := run(t, tinySystem(), []tracegen.Request{big}, func(c *Config) {
		c.Reservations = []Reservation{window}
	})
	j := findJob(res, "big")
	// 8 nodes don't fit next to the 4-node carve; the job waits for the
	// window to close.
	if j.Start.Before(window.End) {
		t.Errorf("8-node job started %v inside a 4-node reservation window", j.Start)
	}
}

func TestReservationJobMustFitWindow(t *testing.T) {
	window := Reservation{Name: "beamtime", Nodes: 4, Start: t0, End: t0.Add(time.Hour)}
	long := req("nrt", t0, 2, 2*time.Hour, 90*time.Minute) // cannot finish by End
	long.Reservation = "beamtime"
	res := run(t, tinySystem(), []tracegen.Request{long}, func(c *Config) {
		c.Reservations = []Reservation{window}
	})
	j := findJob(res, "nrt")
	// Released to the general pool at window end and runs there.
	if j.Start.Before(window.End) {
		t.Errorf("overlong job ran inside the window: started %v", j.Start)
	}
	if j.State != slurm.StateCompleted {
		t.Errorf("state %v", j.State)
	}
	if res.Stats.ReservationStarts != 0 {
		t.Errorf("ReservationStarts = %d", res.Stats.ReservationStarts)
	}
}

func TestReservationNodesReturnAfterWindow(t *testing.T) {
	window := Reservation{Name: "beamtime", Nodes: 6, Start: t0, End: t0.Add(time.Hour)}
	after := req("later", t0.Add(30*time.Minute), 10, 2*time.Hour, 30*time.Minute)
	res := run(t, tinySystem(), []tracegen.Request{after}, func(c *Config) {
		c.Reservations = []Reservation{window}
	})
	j := findJob(res, "later")
	if !j.Start.Equal(window.End) {
		t.Errorf("full-machine job started %v, want at window end %v", j.Start, window.End)
	}
}

func TestReservationValidation(t *testing.T) {
	base := DefaultConfig(tinySystem())
	cases := []struct {
		name string
		res  Reservation
	}{
		{"unnamed", Reservation{Nodes: 2, Start: t0, End: t0.Add(time.Hour)}},
		{"oversize", Reservation{Name: "r", Nodes: 99, Start: t0, End: t0.Add(time.Hour)}},
		{"empty window", Reservation{Name: "r", Nodes: 2, Start: t0, End: t0}},
	}
	for _, c := range cases {
		cfg := base
		cfg.Reservations = []Reservation{c.res}
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
	dup := base
	r := Reservation{Name: "r", Nodes: 2, Start: t0, End: t0.Add(time.Hour)}
	dup.Reservations = []Reservation{r, r}
	if _, err := New(dup); err == nil {
		t.Error("duplicate reservation: want error")
	}
	sim, _ := New(base)
	bad := req("a", t0, 1, time.Hour, time.Minute)
	bad.Reservation = "ghost"
	if _, err := sim.Run([]tracegen.Request{bad}, Options{}); err == nil {
		t.Error("unknown reservation reference: want error")
	}
	sim2, err := New(Config{})
	if err == nil || sim2 != nil {
		t.Error("empty config: want error")
	}
}

// TestMixedFeatureWorkload runs a trace exercising chains, arrays,
// preemption, and reservations together and checks global invariants.
func TestMixedFeatureWorkload(t *testing.T) {
	p := tracegen.FrontierProfile() // includes urgent + preemptible classes
	p.JobsPerDay, p.Users = 120, 60
	reqs, err := tracegen.Generate([]tracegen.Phase{{
		Profile: p, Start: t0, End: t0.AddDate(0, 0, 10),
	}}, 77)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(cluster.Frontier())
	cfg.Reservations = []Reservation{{
		Name: "beamline-a", Nodes: 256,
		Start: t0.AddDate(0, 0, 2), End: t0.AddDate(0, 0, 3),
	}}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := sim.Run(reqs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := collect(raw)
	chains := 0
	for i := range res.Jobs {
		j := &res.Jobs[i]
		if !j.State.Terminal() {
			t.Fatalf("job %v not terminal", j.ID)
		}
		if j.Dependency != "" {
			chains++
			if !j.Start.IsZero() && j.Eligible.Before(j.Submit) {
				t.Fatalf("dependent %v eligible before submit", j.ID)
			}
		}
		if !j.Start.IsZero() && j.Elapsed > j.Timelimit {
			t.Fatalf("job %v exceeded its limit", j.ID)
		}
	}
	if chains == 0 {
		t.Error("profile generated no dependency chains")
	}
	if util := res.Stats.Utilization(); util <= 0 || util > 1 {
		t.Errorf("utilization = %v", util)
	}
}
