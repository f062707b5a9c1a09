package sched

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"slurmsight/internal/cluster"
	"slurmsight/internal/slurm"
	"slurmsight/internal/tracegen"
)

// tinyProfile builds a randomized workload profile for the 10-node test
// system, seeded so every property-check iteration sees a fresh shape.
func tinyProfile(rng *rand.Rand, sys *cluster.System) tracegen.Profile {
	day := func(h float64) float64 { return h * 3600 }
	mk := func(name string, qos string) tracegen.Class {
		return tracegen.Class{
			Name:         name,
			Weight:       0.2 + rng.Float64(),
			Nodes:        tracegen.Clamped{D: tracegen.LogNormalMedian(1+rng.Float64()*4, 1.8), Lo: 1, Hi: 10},
			Runtime:      tracegen.Clamped{D: tracegen.LogNormalMedian(day(0.2+rng.Float64()), 2.0), Lo: 30, Hi: day(20)},
			Overestimate: tracegen.Clamped{D: tracegen.LogNormalMedian(1.5+rng.Float64()*2, 1.5), Lo: 1, Hi: 10},
			Steps:        tracegen.Clamped{D: tracegen.LogNormalMedian(3, 2), Lo: 1, Hi: 20},
			FailRate:     rng.Float64() * 0.2,
			CancelRate:   rng.Float64() * 0.15,
			TimeoutRate:  rng.Float64() * 0.1,
			ChainProb:    rng.Float64() * 0.3,
			ChainLen:     tracegen.Clamped{D: tracegen.LogNormalMedian(3, 1.4), Lo: 2, Hi: 6},
			QOS:          qos,
		}
	}
	return tracegen.Profile{
		Name:       "tiny-random",
		System:     sys,
		Users:      3 + rng.Intn(10),
		UserSkew:   0.5 + rng.Float64(),
		FailSpread: 1 + rng.Float64()*2,
		JobsPerDay: 10 + rng.Float64()*30,
		Classes: []tracegen.Class{
			mk("a", "normal"),
			mk("b", "debug"),
			mk("urgent", "urgent"),
			mk("soak", "preemptible"),
		},
	}
}

// composition is one policy composition the invariants must hold under.
type composition struct {
	name, preset, backfill, nodeSelect string
}

// compositions lists the seven arms tournament.DefaultSpecs() names,
// spelled as configs (this package cannot import tournament), then every
// registered backfill × node-select pair.
func compositions() []composition {
	cs := []composition{
		{name: "default"},
		{name: "capability", preset: "capability"},
		{name: "aging", preset: "aging"},
		{name: "fairshare", preset: "fairshare"},
		{name: "fifo", preset: "fifo"},
		{name: "conservative", backfill: "conservative"},
		{name: "no-backfill", backfill: "none"},
	}
	for _, bf := range backfillNames {
		for _, sel := range selectorNames {
			cs = append(cs, composition{name: bf + "+" + sel, backfill: bf, nodeSelect: sel})
		}
	}
	return cs
}

// randomWorkload builds one random tiny workload and the simulator the
// composition runs it on; reqs is empty when the profile drew no jobs.
func randomWorkload(t *testing.T, c composition, seed int64, reservations bool) (*Simulator, []tracegen.Request, *cluster.System) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sys := preemptSystem()
	p := tinyProfile(rng, sys)
	if rng.Intn(2) == 0 {
		// Half the random workloads mix in a sub-node class.
		p.Classes[0].SubNodeCores = tracegen.Clamped{D: tracegen.LogNormalMedian(3, 1.8), Lo: 1, Hi: 8}
	}
	start := t0
	reqs, err := tracegen.Generate([]tracegen.Phase{{
		Profile: p, Start: start, End: start.AddDate(0, 0, 3),
	}}, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(sys)
	if c.preset != "" {
		if err := ApplyPreset(&cfg, c.preset); err != nil {
			t.Fatal(err)
		}
	}
	cfg.Backfill, cfg.NodeSelect = c.backfill, c.nodeSelect
	cfg.Seed = seed
	cfg.EnableNodeSharing = seed%2 == 0
	if reservations {
		cfg.Reservations = []Reservation{{
			Name:  "window",
			Nodes: 1 + rng.Intn(4),
			Start: start.Add(time.Duration(rng.Intn(24)) * time.Hour),
			End:   start.Add(time.Duration(24+rng.Intn(24)) * time.Hour),
		}}
	}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim, reqs, sys
}

// runRandomWorkload simulates one random workload under a composition and
// returns its outcomes; nil when the profile drew no jobs.
func runRandomWorkload(t *testing.T, c composition, seed int64, reservations bool) ([]Outcome, *Result, *cluster.System) {
	t.Helper()
	sim, reqs, sys := randomWorkload(t, c, seed, reservations)
	if len(reqs) == 0 {
		return nil, nil, sys
	}
	res, err := sim.Run(reqs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return slices.Collect(res.Outcomes), res, sys
}

// checkEach runs the property over random seeds under every composition.
func checkEach(t *testing.T, count, short int, property func(t *testing.T, c composition, seed uint16) bool) {
	cfg := &quick.Config{MaxCount: count}
	if testing.Short() {
		cfg.MaxCount = short
	}
	for _, c := range compositions() {
		t.Run(c.name, func(t *testing.T) {
			if err := quick.Check(func(seed uint16) bool { return property(t, c, seed) }, cfg); err != nil {
				t.Error(err)
			}
		})
	}
}

// checkNoOverallocation replays allocation edges in cores (the true
// allocation for both whole-node and shared jobs) and asserts the busy
// count never exceeds capacity at any instant.
func checkNoOverallocation(t *testing.T, jobs []Outcome, capacityCores int) {
	t.Helper()
	type edge struct {
		at    time.Time
		cores int
	}
	var edges []edge
	for _, o := range jobs {
		if o.Started {
			edges = append(edges, edge{o.Start, +o.Cores}, edge{o.End, -o.Cores})
		}
	}
	sort.SliceStable(edges, func(a, b int) bool {
		if !edges[a].at.Equal(edges[b].at) {
			return edges[a].at.Before(edges[b].at)
		}
		return edges[a].cores < edges[b].cores // releases before grabs at ties
	})
	busy := 0
	for _, e := range edges {
		busy += e.cores
		if busy > capacityCores {
			t.Fatalf("over-allocation: %d cores busy of %d", busy, capacityCores)
		}
	}
	if busy != 0 {
		t.Fatalf("allocation imbalance at end: %d", busy)
	}
}

// TestPropertySchedulerInvariants runs randomized workloads through every
// composition and checks the invariants every Slurm trace satisfies, read
// through the outcomes the scorecard is computed from — and that the
// record stream says the same thing job for job.
func TestPropertySchedulerInvariants(t *testing.T) {
	checkEach(t, 25, 5, func(t *testing.T, c composition, seed uint16) bool {
		jobs, res, sys := runRandomWorkload(t, c, int64(seed)+1, seed%3 == 0)
		if jobs == nil {
			return true
		}
		checkNoOverallocation(t, jobs, int(sys.TotalCores()))
		for i, o := range jobs {
			r := o.Req
			if !o.State.Terminal() {
				t.Fatalf("seed %d: job %d non-terminal %v", seed, i, o.State)
			}
			if !o.Started {
				if o.State != slurm.StateCancelled || !o.Start.IsZero() || o.Backfilled || o.Steps != 0 {
					t.Fatalf("seed %d: never-started job %d reads %+v", seed, i, o)
				}
				continue
			}
			if o.Eligible.Before(r.Submit) || o.Start.Before(o.Eligible) {
				t.Fatalf("seed %d: job %d submit/eligible/start out of order", seed, i)
			}
			elapsed := o.End.Sub(o.Start)
			if elapsed < 0 || elapsed > r.Timelimit {
				t.Fatalf("seed %d: job %d ran %v of a %v limit", seed, i, elapsed, r.Timelimit)
			}
			if o.State == slurm.StateTimeout && elapsed != r.Timelimit {
				t.Fatalf("seed %d: timeout %d at %v of %v", seed, i, elapsed, r.Timelimit)
			}
			if o.Steps != r.Steps+2 {
				t.Fatalf("seed %d: job %d plans %d steps for %d numbered", seed, i, o.Steps, r.Steps)
			}
		}
		i := 0
		for rec := range res.Records {
			o := jobs[i]
			if rec.IsStep() || rec.Comment != o.Req.Class || !rec.Submit.Equal(o.Req.Submit) ||
				!rec.Eligible.Equal(o.Eligible) || !rec.Start.Equal(o.Start) || !rec.End.Equal(o.End) ||
				rec.State != o.State || rec.Backfilled() != o.Backfilled || rec.NCPUs != int64(o.Cores) ||
				o.Started && rec.Elapsed != o.End.Sub(o.Start) {
				t.Fatalf("seed %d: record %v disagrees with outcome %d: %+v", seed, rec.ID, i, o)
			}
			i++
		}
		if i != len(jobs) || res.Len() != i {
			t.Fatalf("seed %d: %d job rows for %d outcomes", seed, i, len(jobs))
		}
		return true
	})
}

// TestPropertyChainOrdering asserts that every dependent job starts only
// after its predecessor completed, across random workloads.
func TestPropertyChainOrdering(t *testing.T) {
	checkEach(t, 15, 4, func(t *testing.T, c composition, seed uint16) bool {
		jobs, _, _ := runRandomWorkload(t, c, int64(seed)+1000, false)
		byPos := map[chainKey]Outcome{}
		for _, o := range jobs {
			if o.Req.Chain != 0 {
				byPos[chainKey{o.Req.Chain, o.Req.ChainPos}] = o
			}
		}
		for key, o := range byPos {
			if key.pos == 0 || !o.Started {
				continue
			}
			pred, ok := byPos[chainKey{key.chain, key.pos - 1}]
			if !ok {
				t.Fatalf("seed %d: chain %d position %d has no predecessor", seed, key.chain, key.pos)
			}
			if pred.State != slurm.StateCompleted {
				t.Fatalf("seed %d: chain %d position %d ran after a non-completed predecessor (%v)",
					seed, key.chain, key.pos, pred.State)
			}
			if o.Start.Before(pred.End) {
				t.Fatalf("seed %d: chain %d position %d started before its predecessor ended", seed, key.chain, key.pos)
			}
		}
		return true
	})
}

// orderWitness is a NodeSelector that watches every placement for a job
// started past one that outranks it. The pending jobs of a pass are the
// jobs still queued in the lanes and the tail of requeued victims; a
// reservation-tagged job waits for its window without blocking, and a
// victim evicted in this pass queues behind everything in eviction order,
// so neither counts — and a start inside an active reservation is placed
// in its carved pool and never reaches a selector at all.
type orderWitness struct {
	NodeSelector
	s          *Simulator
	outOfOrder int
}

func (w *orderWitness) Place(j *job) {
	s := w.s
	outranks := func(k *job) bool {
		if k.res != nil {
			return false
		}
		p := s.priorityAt(k, s.now)
		return p > j.priority || p == j.priority && k.seq < j.seq
	}
	for _, li := range s.active {
		for _, e := range s.lanes[li].ent {
			if e.j.queued && outranks(e.j) {
				w.outOfOrder++
			}
		}
	}
	w.NodeSelector.Place(j)
}

// TestPropertyNoBackfillKeepsPriorityOrder is the one policy contract
// that needs no reference scheduler: under Backfill "none", whatever the
// priority policy and the node selector, the main pass never starts a job
// while one that outranks it waits. The same witness under EASY must see
// such starts, or it could not see them here.
func TestPropertyNoBackfillKeepsPriorityOrder(t *testing.T) {
	witnessed := func(c composition, seed int64) int {
		sim, reqs, _ := randomWorkload(t, c, seed, seed%3 == 0)
		if len(reqs) == 0 {
			return 0
		}
		w := &orderWitness{NodeSelector: sim.sel, s: sim}
		sim.sel = w
		if _, err := sim.Run(reqs, Options{}); err != nil {
			t.Fatal(err)
		}
		return w.outOfOrder
	}
	easy := 0
	for seed := int64(3000); seed < 3020; seed++ {
		for _, preset := range []string{"", "capability", "aging", "fairshare", "fifo"} {
			for _, sel := range selectorNames {
				c := composition{preset: preset, backfill: "none", nodeSelect: sel}
				if n := witnessed(c, seed); n != 0 {
					t.Fatalf("seed %d, preset %q, %s: %d starts past a higher-priority pending job", seed, preset, sel, n)
				}
			}
		}
		easy += witnessed(composition{backfill: "easy"}, seed)
	}
	if easy == 0 {
		t.Error("the witness saw no out-of-order start under EASY backfill: it is blind")
	}
}

// TestPropertyAccountingBalance: every request yields exactly one job
// record; counts in RunStats add up.
func TestPropertyAccountingBalance(t *testing.T) {
	f := func(seed uint16) bool {
		rng := rand.New(rand.NewSource(int64(seed) + 2000))
		sys := preemptSystem()
		p := tinyProfile(rng, sys)
		reqs, err := tracegen.Generate([]tracegen.Phase{{
			Profile: p, Start: t0, End: t0.AddDate(0, 0, 2),
		}}, int64(seed))
		if err != nil {
			t.Fatal(err)
		}
		if len(reqs) == 0 {
			return true
		}
		sim, err := New(DefaultConfig(sys))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(reqs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != len(reqs) {
			t.Fatalf("seed %d: %d jobs for %d requests", seed, res.Len(), len(reqs))
		}
		st := res.Stats
		terminal := st.JobsCompleted + st.JobsFailed + st.JobsCancelled +
			st.JobsTimeout + st.JobsNodeFail + st.JobsOOM
		if terminal != len(reqs) {
			t.Fatalf("seed %d: stats count %d of %d jobs", seed, terminal, len(reqs))
		}
		if st.NeverStarted > st.JobsCancelled {
			t.Fatalf("seed %d: NeverStarted %d > cancelled %d", seed, st.NeverStarted, st.JobsCancelled)
		}
		if u := st.Utilization(); u < 0 || u > 1.0001 {
			t.Fatalf("seed %d: utilization %v", seed, u)
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
