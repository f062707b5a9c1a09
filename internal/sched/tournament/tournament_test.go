package tournament

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"regexp"
	"strings"
	"testing"
	"time"

	"slurmsight/internal/cluster"
	"slurmsight/internal/obs"
	"slurmsight/internal/tracegen"
)

var t0 = time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)

func testSystem() *cluster.System {
	s := &cluster.System{
		Name:         "tiny",
		Nodes:        10,
		CoresPerNode: 8,
		MemPerNode:   64 << 30,
		Partitions: []cluster.Partition{
			{Name: "batch", Nodes: 10, MaxWall: 24 * time.Hour, Default: true},
		},
		QOSLevels: []cluster.QOS{{Name: "normal"}},
	}
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s
}

func testTrace(t *testing.T, sys *cluster.System) []tracegen.Request {
	t.Helper()
	return traceOfDays(t, sys, 3)
}

// traceOfDays is the test workload over days days from t0.
func traceOfDays(t *testing.T, sys *cluster.System, days int) []tracegen.Request {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	day := func(h float64) float64 { return h * 3600 }
	mk := func(name string, w float64) tracegen.Class {
		return tracegen.Class{
			Name:         name,
			Weight:       w,
			Nodes:        tracegen.Clamped{D: tracegen.LogNormalMedian(1+rng.Float64()*4, 1.8), Lo: 1, Hi: 10},
			Runtime:      tracegen.Clamped{D: tracegen.LogNormalMedian(day(0.3), 2.0), Lo: 60, Hi: day(12)},
			Overestimate: tracegen.Clamped{D: tracegen.LogNormalMedian(2, 1.5), Lo: 1, Hi: 8},
			Steps:        tracegen.Clamped{D: tracegen.LogNormalMedian(2, 1.5), Lo: 1, Hi: 5},
		}
	}
	p := tracegen.Profile{
		Name:       "tournament-test",
		System:     sys,
		JobsPerDay: 70,
		Users:      12,
		Classes:    []tracegen.Class{mk("small", 0.6), mk("large", 0.4)},
	}
	reqs, err := tracegen.Generate([]tracegen.Phase{{
		Profile: p, Start: t0, End: t0.AddDate(0, 0, days),
	}}, 31)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

// stripElapsed zeroes the wall-clock fields, the only permitted
// nondeterminism in the scorecard.
func stripElapsed(sc *Scorecard) {
	sc.ElapsedMS = 0
	for i := range sc.Policies {
		sc.Policies[i].ElapsedMS = 0
	}
}

// encodeStripped renders the scorecard bytes two runs must agree on.
func encodeStripped(t *testing.T, sc *Scorecard) []byte {
	t.Helper()
	stripElapsed(sc)
	b, err := sc.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRunDeterministicAcrossRuns(t *testing.T) {
	sys := testSystem()
	reqs := testTrace(t, sys)
	specs := []Spec{
		{Name: "default"},
		{Name: "fifo", Preset: "fifo"},
		{Name: "conservative", Backfill: "conservative"},
	}
	run := func() []byte {
		sc, err := Run(Input{Specs: specs, Reqs: reqs, System: sys, Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		return encodeStripped(t, sc)
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("scorecards differ across identical runs:\n--- a\n%s\n--- b\n%s", a, b)
	}
}

func TestScorecardShape(t *testing.T) {
	sys := testSystem()
	reqs := testTrace(t, sys)
	sc, err := Run(Input{Specs: DefaultSpecs(), Reqs: reqs, System: sys, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Schema != Schema {
		t.Errorf("schema %q, want %q", sc.Schema, Schema)
	}
	if sc.Trace.Requests != len(reqs) || sc.Trace.Seed != 31 || sc.Trace.System != "tiny" {
		t.Errorf("trace info %+v", sc.Trace)
	}
	if len(sc.Policies) != len(DefaultSpecs()) {
		t.Fatalf("%d policy rows, want %d", len(sc.Policies), len(DefaultSpecs()))
	}
	byName := map[string]*PolicyScore{}
	for i := range sc.Policies {
		ps := &sc.Policies[i]
		byName[ps.Name] = ps
		if ps.Started == 0 {
			t.Errorf("policy %q started no jobs", ps.Name)
		}
		if ps.Utilization <= 0 || ps.Utilization > 1 {
			t.Errorf("policy %q utilization %v out of (0,1]", ps.Name, ps.Utilization)
		}
		if len(ps.Classes) == 0 {
			t.Errorf("policy %q has no class breakdown", ps.Name)
		}
		for _, cs := range ps.Classes {
			if cs.Class != "small" && cs.Class != "large" {
				t.Errorf("policy %q unexpected class %q", ps.Name, cs.Class)
			}
			if cs.WaitP90Sec < cs.WaitP50Sec {
				t.Errorf("policy %q class %q p90 %v < p50 %v",
					ps.Name, cs.Class, cs.WaitP90Sec, cs.WaitP50Sec)
			}
		}
	}
	// The contrasts must actually behave differently: no-backfill starts
	// nothing out of order, EASY backfills plenty.
	if nb := byName["no-backfill"]; nb.Backfilled != 0 {
		t.Errorf("no-backfill backfilled %d jobs", nb.Backfilled)
	}
	if def := byName["default"]; def.Backfilled == 0 {
		t.Error("default policy backfilled nothing on a contended trace")
	}
	// The scorecard is valid JSON with the schema marker first-class.
	b, err := sc.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	var round map[string]any
	if err := json.Unmarshal(b, &round); err != nil {
		t.Fatal(err)
	}
	if round["schema"] != Schema {
		t.Errorf("encoded schema %v", round["schema"])
	}
}

func TestRunPolicyLabelledMetricsAndSpans(t *testing.T) {
	sys := testSystem()
	reqs := testTrace(t, sys)
	reg := obs.NewRegistry()
	tr := obs.NewTracer()
	specs := []Spec{{Name: "default"}, {Name: "fifo", Preset: "fifo"}}
	if _, err := Run(Input{
		Specs: specs, Reqs: reqs, System: sys, Seed: 31,
		Metrics: reg, Tracer: tr,
	}); err != nil {
		t.Fatal(err)
	}

	var text strings.Builder
	reg.WriteText(&text)
	for _, want := range []string{
		`sched_events_processed_total{policy="default"}`,
		`sched_events_processed_total{policy="fifo"}`,
		`sched_backfill_starts_total{policy="default"}`,
		`sched_phase_ns_total{phase="backfill",policy="default"}`,
		`sched_phase_ns_total{phase="main_pass",policy="fifo"}`,
		"# TYPE sched_pending_depth_sum{policy=\"fifo\"} counter",
		`schedbench_arms_total{source="simulated"} 2`,
		"schedbench_tournaments_total",
	} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("metrics missing %s\n%s", want, text.String())
		}
	}

	spans := tr.Snapshot()
	var policySpans int
	for _, sp := range spans {
		if sp.Name == "tournament.policy" {
			policySpans++
			if p := sp.Attr("policy"); p != "default" && p != "fifo" {
				t.Errorf("policy span attr %q", p)
			}
		}
	}
	if policySpans != 2 {
		t.Errorf("%d policy spans, want 2", policySpans)
	}
}

func TestRunRejectsBadSpecs(t *testing.T) {
	sys := testSystem()
	reqs := testTrace(t, sys)
	cases := []struct {
		name  string
		specs []Spec
		match string
	}{
		{"empty", nil, "no specs"},
		{"unnamed", []Spec{{}}, "needs a name"},
		{"duplicate", []Spec{{Name: "a"}, {Name: "a"}}, "duplicate"},
		{"bad preset", []Spec{{Name: "a", Preset: "nope"}}, "preset"},
		{"bad backfill", []Spec{{Name: "a", Backfill: "psychic"}}, "unknown policy"},
		{"negative weight", []Spec{{Name: "a", Weights: &Weights{Age: ptr(int64(-1))}}}, "negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(Input{Specs: tc.specs, Reqs: reqs, System: sys, Seed: 1})
			if err == nil {
				t.Fatal("Run accepted bad specs")
			}
			if ok, _ := regexp.MatchString(tc.match, err.Error()); !ok {
				t.Errorf("error %q does not match %q", err, tc.match)
			}
		})
	}
}

// TestFieldArmFailure runs a field over a trace the simulator refuses: a
// submit instant Unix nanoseconds cannot hold. Run must return the first
// simulated spec's error, keep no row and count no arm.
func TestFieldArmFailure(t *testing.T) {
	sys := testSystem()
	reqs := append([]tracegen.Request(nil), testTrace(t, sys)...)
	reqs[0].Submit = time.Date(1600, 1, 1, 0, 0, 0, 0, time.UTC)
	reg := obs.NewRegistry()
	f := NewField(reqs, sys, 31, reg, nil)
	_, err := f.Run([]Spec{
		{Name: "default"},
		{Name: "fifo", Preset: "fifo"},
		{Name: "evolved"}, // default's twin: answered from the memo, were there a row
		{Name: "conservative", Backfill: "conservative"},
	})
	if err == nil {
		t.Fatal("Run accepted a trace the simulator refuses")
	}
	if want := `tournament: policy "default": sched: request 0: submit`; !strings.HasPrefix(err.Error(), want) {
		t.Errorf("err = %q, want prefix %q", err, want)
	}
	if len(f.rows) != 0 {
		t.Errorf("the field kept %d rows after a failed run", len(f.rows))
	}
	if sim, memo := armsTotal(reg, "simulated"), armsTotal(reg, "memoised"); sim != 0 || memo != 0 {
		t.Errorf("arms counted after a failed run: %d simulated, %d memoised", sim, memo)
	}
}

func ptr[T any](v T) *T { return &v }

// armsTotal reads schedbench_arms_total{source=…}.
func armsTotal(reg *obs.Registry, source string) int64 {
	return reg.Counter(obs.Label("schedbench_arms_total", "source", source)).Value()
}

// TestFieldSimulatesEachConfigOnce walks one field through the cases the
// memo must get right, counting simulations by schedbench_arms_total and
// holding every scorecard against an un-memoised tournament.Run.
func TestFieldSimulatesEachConfigOnce(t *testing.T) {
	sys := testSystem()
	reqs := testTrace(t, sys)
	reg := obs.NewRegistry()
	f := NewField(reqs, sys, 31, reg, nil)
	reference := func(specs []Spec) []byte {
		t.Helper()
		sc, err := Run(Input{Specs: specs, Reqs: reqs, System: sys, Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		return encodeStripped(t, sc)
	}
	step := func(what string, specs []Spec, wantSim, wantMemo int64) *Scorecard {
		t.Helper()
		sim0, memo0 := armsTotal(reg, "simulated"), armsTotal(reg, "memoised")
		sc, err := f.Run(specs)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if sim, memo := armsTotal(reg, "simulated")-sim0, armsTotal(reg, "memoised")-memo0; sim != wantSim || memo != wantMemo {
			t.Errorf("%s: %d simulated, %d memoised; want %d, %d", what, sim, memo, wantSim, wantMemo)
		}
		// Compare on a copy: stripping must not touch what callers hold.
		cp := *sc
		cp.Policies = append([]PolicyScore(nil), sc.Policies...)
		if got, want := encodeStripped(t, &cp), reference(specs); !bytes.Equal(got, want) {
			t.Errorf("%s: scorecard differs from an un-memoised run:\n--- field\n%s\n--- reference\n%s", what, got, want)
		}
		return sc
	}

	// Two names over one materialised config, in one call: the zero-spec
	// "evolved" arm is "default" until a delta lands.
	first := step("in-call twin", []Spec{
		{Name: "default"},
		{Name: "fifo", Preset: "fifo"},
		{Name: "evolved"},
	}, 2, 1)
	if a, b := first.Policies[0], first.Policies[2]; a.Name != "default" || b.Name != "evolved" ||
		b.Spec.Name != "evolved" || a.MeanWaitSec != b.MeanWaitSec || a.ElapsedMS != b.ElapsedMS {
		t.Errorf("twin rows: %+v / %+v", a, b)
	}
	// The simulator's labelled counters are republished for the arm that
	// ran, never for the twin that shared its row.
	if got := reg.Counter(obs.Label("sched_passes_total", "policy", "default")).Value(); got == 0 {
		t.Error(`no sched_passes_total{policy="default"}`)
	}
	if got := reg.Counter(obs.Label("sched_passes_total", "policy", "evolved")).Value(); got != 0 {
		t.Errorf(`sched_passes_total{policy="evolved"} = %d for an arm that never simulated`, got)
	}
	passes := reg.Counter(obs.Label("sched_passes_total", "policy", "default")).Value()

	// The same field again: nothing to simulate, nothing double counted.
	step("repeat", []Spec{{Name: "default"}, {Name: "fifo", Preset: "fifo"}}, 0, 2)
	if got := reg.Counter(obs.Label("sched_passes_total", "policy", "default")).Value(); got != passes {
		t.Errorf(`sched_passes_total{policy="default"} moved %d → %d on a memoised round`, passes, got)
	}

	// An override that spells out the preset's own value is the same
	// materialised config: the key is the config, not the spec's text.
	spelled := step("override equals default", []Spec{{
		Name: "spelled", Backfill: "easy", Priority: "multifactor", NodeSelect: "pool",
		BackfillDepth: 500, Weights: &Weights{Age: ptr(int64(300_000))},
	}}, 0, 1)

	// The echoed spec is the arm's own, deep-copied: writing through it
	// reaches neither the caller's spec nor the kept row.
	*spelled.Policies[0].Spec.Weights.Age = 1
	spelled.Policies[0].Classes[0].Jobs = -1
	again := step("after caller mutation", []Spec{{Name: "default"}}, 0, 1)
	if again.Policies[0].Spec.Weights != nil || again.Policies[0].Classes[0].Jobs < 0 {
		t.Errorf("a caller's write reached the field's kept row: %+v", again.Policies[0])
	}

	// A real change simulates exactly the changed arm.
	step("one arm moved", []Spec{
		{Name: "default"},
		{Name: "evolved", Weights: &Weights{Age: ptr(int64(450_000))}},
	}, 1, 1)

	// A bad spec fails before any arm runs, whatever else is in the call.
	sim0 := armsTotal(reg, "simulated")
	if _, err := f.Run([]Spec{{Name: "aging", Preset: "aging"}, {Name: "bad", Backfill: "psychic"}}); err == nil {
		t.Error("field accepted a bad spec")
	}
	if got := armsTotal(reg, "simulated"); got != sim0 {
		t.Errorf("%d arms simulated beside a bad spec", got-sim0)
	}
	step("after the refusal", []Spec{{Name: "aging", Preset: "aging"}}, 1, 0)

	if got := reg.Counter("schedbench_tournaments_total").Value(); got != 6 {
		t.Errorf("schedbench_tournaments_total = %d, want 6 completed calls", got)
	}
}
