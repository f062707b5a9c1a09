package sched

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"slurmsight/internal/cluster"
	"slurmsight/internal/obs"
	"slurmsight/internal/tracegen"
)

// --- typed config validation ---

func TestValidateTypedErrors(t *testing.T) {
	base := func() Config { return DefaultConfig(tinySystem()) }
	cases := []struct {
		name   string
		mutate func(*Config)
		want   error
	}{
		{"nil system", func(c *Config) { c.System = nil }, ErrNilSystem},
		{"negative age weight", func(c *Config) { c.AgeWeight = -1 }, ErrNegativeWeight},
		{"negative size weight", func(c *Config) { c.SizeWeight = -1 }, ErrNegativeWeight},
		{"negative fairshare weight", func(c *Config) { c.FairShareWeight = -1 }, ErrNegativeWeight},
		{"negative backfill depth", func(c *Config) { c.BackfillDepth = -3 }, ErrBadDepth},
		{"zero age max", func(c *Config) { c.AgeMax = 0 }, ErrBadTimeConstant},
		{"zero half life", func(c *Config) { c.FairShareHalfLife = 0 }, ErrBadTimeConstant},
		{"unknown priority", func(c *Config) { c.Priority = "lottery" }, ErrUnknownPolicy},
		{"unknown backfill", func(c *Config) { c.Backfill = "psychic" }, ErrUnknownPolicy},
		{"unknown selector", func(c *Config) { c.NodeSelect = "quantum" }, ErrUnknownPolicy},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mutate(&cfg)
			if _, err := New(cfg); !errors.Is(err, tc.want) {
				t.Fatalf("New() error = %v, want errors.Is(%v)", err, tc.want)
			}
		})
	}
	if _, err := New(base()); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

// The names PriorityByName, BackfillByName and SelectorByName resolve,
// which the policy tests iterate.
var (
	priorityNames = []string{"multifactor", "fifo"}
	backfillNames = []string{"easy", "conservative", "none"}
	selectorNames = []string{"pool", "firstfit", "bestfit"}
)

// --- priority policies ---

func TestPriorityByName(t *testing.T) {
	cfg := DefaultConfig(tinySystem())
	for _, name := range append(priorityNames, "") {
		if _, err := PriorityByName(name, &cfg); err != nil {
			t.Errorf("PriorityByName(%q): %v", name, err)
		}
	}
	if _, err := PriorityByName("nope", &cfg); err == nil {
		t.Error("PriorityByName accepted unknown name")
	}
}

// TestFIFOPriorityOrdersBySubmission runs three same-shape jobs from
// different users submitted in sequence: under fifo every priority term is
// zero, so the submission-sequence tie-break orders starts, regardless of
// the QoS boost that would reorder them under multifactor.
func TestFIFOPriorityOrdersBySubmission(t *testing.T) {
	blocker := req("z", t0, 10, time.Hour, time.Hour) // fills the system
	a := req("a", t0.Add(time.Minute), 10, time.Hour, 30*time.Minute)
	b := req("b", t0.Add(2*time.Minute), 10, time.Hour, 30*time.Minute)
	b.QOS = "debug" // +500k QoS weight: would start before a under multifactor
	c := req("c", t0.Add(3*time.Minute), 10, time.Hour, 30*time.Minute)

	start := func(priority string) [3]time.Time {
		cfg := DefaultConfig(tinySystem())
		cfg.Priority = priority
		cfg.Backfill = "none"
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := sim.Run([]tracegen.Request{blocker, a, b, c}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		res := collect(raw)
		var out [3]time.Time
		for i := range res.Jobs {
			switch res.Jobs[i].User {
			case "a":
				out[0] = res.Jobs[i].Start
			case "b":
				out[1] = res.Jobs[i].Start
			case "c":
				out[2] = res.Jobs[i].Start
			}
		}
		return out
	}

	fifo := start("fifo")
	if !(fifo[0].Before(fifo[1]) && fifo[1].Before(fifo[2])) {
		t.Errorf("fifo order a=%v b=%v c=%v, want submission order", fifo[0], fifo[1], fifo[2])
	}
	multi := start("multifactor")
	if !multi[1].Before(multi[0]) {
		t.Errorf("multifactor: debug-QoS b started %v, a %v; want b first", multi[1], multi[0])
	}
}

// --- backfill policies ---

func TestBackfillByName(t *testing.T) {
	for _, name := range append(backfillNames, "") {
		if _, err := BackfillByName(name); err != nil {
			t.Errorf("BackfillByName(%q): %v", name, err)
		}
	}
	if _, err := BackfillByName("nope"); err == nil {
		t.Error("BackfillByName accepted unknown name")
	}
}

// TestBackfillNameResolution: Config.Backfill alone decides the policy a
// simulator runs, and empty means easy.
func TestBackfillNameResolution(t *testing.T) {
	for backfill, want := range map[string]BackfillPolicy{
		"": easyBackfill{}, "easy": easyBackfill{}, "conservative": &conservativeBackfill{}, "none": noBackfill{},
	} {
		cfg := DefaultConfig(tinySystem())
		cfg.Backfill = backfill
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprintf("%T", sim.bf), fmt.Sprintf("%T", want); got != want {
			t.Errorf("Backfill %q runs %s, want %s", backfill, got, want)
		}
	}
}

func TestFreeProfile(t *testing.T) {
	var p freeProfile
	p.reset(0, 4)

	// Flat profile: anything ≤4 cores fits immediately.
	if at := p.earliestFit(4, 100); at != 0 {
		t.Fatalf("flat fit at %d, want 0", at)
	}
	if at := p.earliestFit(5, 100); at != -1 {
		t.Fatalf("oversized fit at %d, want -1", at)
	}

	// Reserve 3 cores over [0,50): 1 core until t=50, then 4.
	p.reserve(0, 3, 50)
	if at := p.earliestFit(1, 10); at != 0 {
		t.Errorf("1-core fit at %d, want 0", at)
	}
	if at := p.earliestFit(2, 10); at != 50 {
		t.Errorf("2-core fit at %d, want 50", at)
	}

	// Release at t=20: 3 free over [20,50), 6 after.
	p.release(20, 2)
	if at := p.earliestFit(3, 10); at != 20 {
		t.Errorf("3-core fit at %d, want 20", at)
	}
	// 3 cores for 40 ticks starting at 20 would span the drop back to... no:
	// profile is 1,[0,20) 3,[20,50) 6,[50,∞) — monotone here, so 3 cores
	// for any duration fits at 20. Carve a mid-window dip to force the
	// interior-violation rescan: 2 cores over [30,40) leaves 1 free there.
	p.reserve(30, 2, 10)
	if at := p.earliestFit(3, 15); at != 40 {
		t.Errorf("3-core/15 fit at %d, want 40 (dip at [30,40) blocks 20)", at)
	}
	if at := p.earliestFit(1, 100); at != 0 {
		t.Errorf("1-core fit at %d, want 0", at)
	}

	// Reservation before the profile start clamps to the first point.
	p.reset(100, 2)
	p.reserve(-5, 1, 20) // negative start is a no-op
	if at := p.earliestFit(2, 10); at != 100 {
		t.Errorf("fit at %d, want 100 after no-op negative reserve", at)
	}
	p.release(50, 3) // before start: clamps onto the first point
	if at := p.earliestFit(5, 10); at != 100 {
		t.Errorf("fit at %d, want 100 after clamped release", at)
	}
}

// --- node selectors ---

func TestSelectorByName(t *testing.T) {
	for _, name := range append(selectorNames, "") {
		if _, err := SelectorByName(name); err != nil {
			t.Errorf("SelectorByName(%q): %v", name, err)
		}
	}
	if _, err := SelectorByName("nope"); err == nil {
		t.Error("SelectorByName accepted unknown name")
	}
}

func selSystem(nodes, cores int) *cluster.System {
	return &cluster.System{Nodes: nodes, CoresPerNode: cores}
}

func TestTrackingSelectorFirstfit(t *testing.T) {
	sel, _ := SelectorByName("firstfit")
	sel.Reset(selSystem(2, 4))
	ts := sel.(*trackingSelector)

	var seq int64
	j := func(cores int32) *job { seq++; return &job{seq: seq, cores: cores} }

	// 3-core job lands on node 0; a second 2-core job can't share it
	// (3+2 > 4) and takes node 1.
	a, b := j(3), j(2)
	if !sel.Fits(a) {
		t.Fatal("empty system rejects 3-core job")
	}
	sel.Place(a)
	sel.Place(b)
	if ts.nodesOf(a)[0] != 0 || ts.nodesOf(b)[0] != 1 {
		t.Fatalf("placements a=%v b=%v, want node0/node1", ts.nodesOf(a), ts.nodesOf(b))
	}

	// Free cores total 1+2=3, but no node has 3 contiguous: fragmentation
	// blocks what the scalar pool would have allowed.
	if sel.Fits(j(3)) {
		t.Error("fragmented system accepted 3-core job")
	}
	// A whole-node job needs a fully-free node; none exists.
	if sel.Fits(j(4)) {
		t.Error("fragmented system accepted whole-node job")
	}

	// Releasing a restores node 0; the whole-node job fits there now.
	sel.Release(a)
	w := j(4)
	if !sel.Fits(w) {
		t.Fatal("freed node rejected whole-node job")
	}
	sel.Place(w)
	if ts.nodesOf(w)[0] != 0 {
		t.Fatalf("whole-node placement %v, want node0", ts.nodesOf(w))
	}
	sel.Release(w)
	sel.Release(b)
	if !sel.Fits(j(8)) {
		t.Error("fully released system rejected 2-node job")
	}
}

func TestTrackingSelectorBestfit(t *testing.T) {
	sel, _ := SelectorByName("bestfit")
	sel.Reset(selSystem(3, 8))
	ts := sel.(*trackingSelector)

	var seq int64
	j := func(cores int32) *job { seq++; return &job{seq: seq, cores: cores} }

	// Load node 0 with 5 cores and node 1 with 2; best-fit puts a 3-core
	// job on node 0 (fullest that fits), where first-fit also would — so
	// distinguish with a 4-core job: node 0 has 3 free (no fit), node 1
	// has 6 free, node 2 is empty. Best-fit picks node 1.
	sel.Place(j(5))
	sel.Place(j(2)) // bestfit: node 0 has 3 free < ... 5+2=7 ≤ 8 → node 0!
	// Careful: the 2-core job packed onto node 0 (5+2=7). Node state:
	// node0=7, node1=0, node2=0.
	four := j(4)
	sel.Place(four)
	if ts.nodesOf(four)[0] != 1 {
		t.Fatalf("4-core best-fit landed on node %d, want 1 (node0 full at 7/8)", ts.nodesOf(four)[0])
	}
	one := j(1)
	sel.Place(one)
	if ts.nodesOf(one)[0] != 0 {
		t.Fatalf("1-core best-fit landed on node %d, want 0 (fullest with room)", ts.nodesOf(one)[0])
	}
}

func TestPoolSelectorAlwaysFits(t *testing.T) {
	sel, _ := SelectorByName("pool")
	sel.Reset(selSystem(1, 4))
	j := &job{cores: 1 << 20}
	if !sel.Fits(j) {
		t.Error("pool selector must accept anything the core pool accepts")
	}
	sel.Place(j)
	sel.Release(j)
}

// --- weight presets ---

func TestPresets(t *testing.T) {
	for name := range presets {
		cfg := DefaultConfig(tinySystem())
		if err := ApplyPreset(&cfg, name); err != nil {
			t.Errorf("ApplyPreset(%q): %v", name, err)
			continue
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("preset %q produces invalid config: %v", name, err)
		}
	}
	cfg := DefaultConfig(tinySystem())
	if err := ApplyPreset(&cfg, "nope"); err == nil {
		t.Error("ApplyPreset accepted unknown preset")
	}

	// The default preset must reproduce DefaultConfig's weights exactly —
	// it is the tournament's baseline arm.
	def := DefaultConfig(tinySystem())
	cfg = DefaultConfig(tinySystem())
	if err := ApplyPreset(&cfg, "default"); err != nil {
		t.Fatal(err)
	}
	if cfg.Base != def.Base || cfg.AgeWeight != def.AgeWeight ||
		cfg.SizeWeight != def.SizeWeight || cfg.FairShareWeight != def.FairShareWeight {
		t.Errorf("default preset %+v diverges from DefaultConfig %+v", cfg, def)
	}
}

// --- preemption counters (satellite: the one scheduler path that had
// no metric) ---

// TestPreemptCounters pins the preemption obs instruments: a successful
// preemption is one attempt and one eviction.
func TestPreemptCounters(t *testing.T) {
	reg := obs.NewRegistry()
	victim := req("victim", t0, 10, 4*time.Hour, 4*time.Hour)
	victim.QOS = "preemptible"
	urgent := req("urgent", t0.Add(30*time.Minute), 6, time.Hour, 30*time.Minute)
	urgent.QOS = "urgent"
	res := run(t, preemptSystem(), []tracegen.Request{victim, urgent},
		func(c *Config) { c.Metrics = reg })
	if res.Stats.Preemptions != 1 {
		t.Fatalf("scenario drifted: %d preemptions, want 1", res.Stats.Preemptions)
	}
	if got := reg.Counter("sched_preempt_attempts_total").Value(); got != 1 {
		t.Errorf("sched_preempt_attempts_total = %d, want 1", got)
	}
	if got := reg.Counter("sched_preempt_evictions_total").Value(); got != 1 {
		t.Errorf("sched_preempt_evictions_total = %d, want 1", got)
	}
}

// TestConfigFingerprint pins the memo key's two duties: spellings of one
// configuration agree, and every setting that changes a run disagrees.
func TestConfigFingerprint(t *testing.T) {
	base := DefaultConfig(tinySystem())
	want := base.Fingerprint()

	same := map[string]func(*Config){
		"named defaults":        func(c *Config) { c.Priority, c.Backfill, c.NodeSelect = "multifactor", "easy", "pool" },
		"metrics attached":      func(c *Config) { c.Metrics = obs.NewRegistry() },
		"another system handle": func(c *Config) { c.System = tinySystem() },
	}
	for name, mutate := range same {
		c := base
		mutate(&c)
		if got := c.Fingerprint(); got != want {
			t.Errorf("%s: fingerprint moved\n got %s\nwant %s", name, got, want)
		}
	}

	differ := map[string]func(*Config){
		"seed":        func(c *Config) { c.Seed++ },
		"base":        func(c *Config) { c.Base++ },
		"age weight":  func(c *Config) { c.AgeWeight++ },
		"size weight": func(c *Config) { c.SizeWeight++ },
		"fair share":  func(c *Config) { c.FairShareWeight++ },
		"age max":     func(c *Config) { c.AgeMax++ },
		"half life":   func(c *Config) { c.FairShareHalfLife++ },
		"depth":       func(c *Config) { c.BackfillDepth++ },
		"sharing":     func(c *Config) { c.EnableNodeSharing = true },
		"priority":    func(c *Config) { c.Priority = "fifo" },
		"backfill":    func(c *Config) { c.Backfill = "conservative" },
		"no backfill": func(c *Config) { c.Backfill = "none" },
		"selector":    func(c *Config) { c.NodeSelect = "firstfit" },
		"reservation": func(c *Config) {
			c.Reservations = []Reservation{{Name: "r", Nodes: 1, Start: t0, End: t0.Add(time.Hour)}}
		},
	}
	seen := map[string]string{want: "default"}
	for name, mutate := range differ {
		c := base
		mutate(&c)
		got := c.Fingerprint()
		if prev, dup := seen[got]; dup {
			t.Errorf("%s: fingerprint equals %s's", name, prev)
		}
		seen[got] = name
	}
}
