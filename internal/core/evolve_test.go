package core

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"slurmsight/internal/cluster"
	"slurmsight/internal/llm"
	"slurmsight/internal/obs"
	"slurmsight/internal/sched/tournament"
	"slurmsight/internal/tracegen"
)

var evT0 = time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)

func evolveSystem() *cluster.System {
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

func evolveTrace(t *testing.T, sys *cluster.System) []tracegen.Request {
	t.Helper()
	rng := rand.New(rand.NewSource(53))
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
		Name:       "evolve-test",
		System:     sys,
		JobsPerDay: 60,
		Users:      10,
		Classes:    []tracegen.Class{mk("small", 0.6), mk("large", 0.4)},
	}
	reqs, err := tracegen.Generate([]tracegen.Phase{{
		Profile: p, Start: evT0, End: evT0.AddDate(0, 0, 3),
	}}, 53)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

// TestEvolveEndToEnd drives the full loop against the real canned
// advisor: tournament → /v1/evolve → apply → re-simulate, for at least
// two rounds, asserting deltas were parsed, applied, and re-scored.
func TestEvolveEndToEnd(t *testing.T) {
	srv := llm.NewServer("sk-test")
	srv.RatePerSec = 0
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sys := evolveSystem()
	reg := obs.NewRegistry()
	res, err := Evolve(context.Background(), EvolveConfig{
		Client:    llm.NewClient(ts.URL, "sk-test"),
		Rounds:    3,
		Objective: "mean_wait_sec",
		Target:    "evolved",
		Specs: []tournament.Spec{
			{Name: "evolved"},
			{Name: "aging", Preset: "aging"},
			{Name: "fifo", Preset: "fifo"},
			{Name: "conservative", Backfill: "conservative"},
		},
		Reqs:    evolveTrace(t, sys),
		System:  sys,
		Seed:    53,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) < 2 {
		t.Fatalf("loop ran %d rounds, want ≥2", len(res.Rounds))
	}
	var applied int
	for _, r := range res.Rounds {
		if r.Scorecard == nil || r.Scorecard.Schema != tournament.Schema {
			t.Fatalf("round %d missing scorecard", r.Round)
		}
		applied += len(r.Applied)
		for _, d := range r.Applied {
			if d.Policy != "evolved" {
				t.Errorf("round %d applied a delta for %q", r.Round, d.Policy)
			}
		}
	}
	if applied == 0 {
		t.Fatal("no deltas applied across the trajectory")
	}
	// The final spec must differ from the starting default: the loop
	// actually moved the policy.
	if res.FinalSpec.Weights == nil && res.FinalSpec.Backfill == "" &&
		res.FinalSpec.Priority == "" && res.FinalSpec.NodeSelect == "" {
		t.Errorf("final spec unchanged: %+v", res.FinalSpec)
	}
	if res.Final == nil || res.Final.Schema != tournament.Schema {
		t.Fatal("missing final re-score")
	}
	// The audit trajectory serialises cleanly once elapsed is stripped.
	stripElapsed(res)
	if _, err := json.Marshal(res); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("evolve_rounds_total").Value() != int64(len(res.Rounds)) {
		t.Errorf("evolve_rounds_total %d, rounds %d",
			reg.Counter("evolve_rounds_total").Value(), len(res.Rounds))
	}
	if reg.Counter("evolve_deltas_applied_total").Value() != int64(applied) {
		t.Error("applied counter out of sync with trajectory")
	}
}

// TestEvolveRejectsBadDeltas runs the loop against a stub advisor that
// proposes one valid and several invalid deltas: the invalid ones must be
// logged as rejected, never applied, and never abort the loop.
func TestEvolveRejectsBadDeltas(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/evolve" {
			http.NotFound(w, r)
			return
		}
		resp := llm.EvolveResponse{
			Rationale: "stub",
			Deltas: []llm.ParamDelta{
				{Policy: "evolved", Param: "age_weight", Op: "scale", Value: 1.5},         // valid
				{Policy: "evolved", Param: "age_weight", Op: "scale", Value: 99},          // scale out of bounds
				{Policy: "evolved", Param: "quantum_weight", Op: "scale", Value: 1.1},     // unknown param
				{Policy: "other", Param: "age_weight", Op: "scale", Value: 1.1},           // wrong target
				{Policy: "evolved", Param: "backfill", Op: "set", Str: "psychic"},         // unknown strategy
				{Policy: "evolved", Param: "backfill_depth", Op: "set", Value: -5},        // bad depth
				{Policy: "evolved", Param: "size_weight", Op: "set", Value: 99_000_000_0}, // over max weight
			},
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp)
	}))
	defer stub.Close()

	sys := evolveSystem()
	res, err := Evolve(context.Background(), EvolveConfig{
		Client: llm.NewClient(stub.URL, ""),
		Rounds: 1,
		Target: "evolved",
		Specs: []tournament.Spec{
			{Name: "evolved"},
			{Name: "fifo", Preset: "fifo"},
		},
		Reqs:   evolveTrace(t, sys),
		System: sys,
		Seed:   53,
	})
	if err != nil {
		t.Fatal(err)
	}
	round := res.Rounds[0]
	if len(round.Applied) != 1 || round.Applied[0].Param != "age_weight" {
		t.Errorf("applied %+v, want exactly the one valid delta", round.Applied)
	}
	if len(round.Rejected) != 6 {
		t.Errorf("%d rejections, want 6: %+v", len(round.Rejected), round.Rejected)
	}
	for _, rej := range round.Rejected {
		if rej.Reason == "" {
			t.Errorf("rejection without a reason: %+v", rej)
		}
	}
	// The single valid scale must have landed: age 300000 → 450000.
	if res.FinalSpec.Weights == nil || res.FinalSpec.Weights.Age == nil ||
		*res.FinalSpec.Weights.Age != 450_000 {
		t.Errorf("final weights %+v, want age=450000", res.FinalSpec.Weights)
	}
}

// TestEvolveSurvivesFaultInjection exercises the loop through the fault
// middleware: transient 429/500 bursts must be absorbed by the client's
// retry core without corrupting the trajectory.
func TestEvolveSurvivesFaultInjection(t *testing.T) {
	srv := llm.NewServer("sk-test")
	srv.RatePerSec = 0
	faults := &llm.FaultPolicy{Seed: 7, Rate500: 0.3, Rate429: 0.2}
	ts := httptest.NewServer(faults.Middleware(srv.Handler()))
	defer ts.Close()

	client := llm.NewClient(ts.URL, "sk-test")
	client.Sleep = func(time.Duration) {} // no real backoff waits in tests
	client.MaxRetries = 8

	sys := evolveSystem()
	res, err := Evolve(context.Background(), EvolveConfig{
		Client: client,
		Rounds: 2,
		Target: "evolved",
		Specs: []tournament.Spec{
			{Name: "evolved"},
			{Name: "aging", Preset: "aging"},
		},
		Reqs:   evolveTrace(t, sys),
		System: sys,
		Seed:   53,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) == 0 || res.Final == nil {
		t.Fatal("faulted loop produced no trajectory")
	}
}

// TestEvolveRoundSnapshotsIndependent pins the audit-record semantics:
// each round's Spec is the state after that round's applications, not a
// view of the live spec that later rounds keep mutating.
func TestEvolveRoundSnapshotsIndependent(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(llm.EvolveResponse{
			Rationale: "stub",
			Deltas: []llm.ParamDelta{
				{Policy: "evolved", Param: "age_weight", Op: "scale", Value: 1.5},
			},
		})
	}))
	defer stub.Close()

	sys := evolveSystem()
	res, err := Evolve(context.Background(), EvolveConfig{
		Client: llm.NewClient(stub.URL, ""),
		Rounds: 2,
		Target: "evolved",
		Specs: []tournament.Spec{
			{Name: "evolved"},
			{Name: "fifo", Preset: "fifo"},
		},
		Reqs:   evolveTrace(t, sys),
		System: sys,
		Seed:   53,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Default age weight 300000: round 0 → 450000, round 1 → 675000.
	age := func(i int) int64 {
		w := res.Rounds[i].Spec.Weights
		if w == nil || w.Age == nil {
			t.Fatalf("round %d spec has no age weight", i)
		}
		return *w.Age
	}
	if age(0) != 450_000 || age(1) != 675_000 {
		t.Errorf("round snapshots age=%d,%d; want 450000,675000 (aliased audit records?)",
			age(0), age(1))
	}
	// A round's scorecard shows the weights its scores were made with —
	// the previous round's output — not the ones its own deltas then set.
	scoredAge := func(sc *tournament.Scorecard) int64 {
		for _, p := range sc.Policies {
			if p.Name == "evolved" && p.Spec.Weights != nil && p.Spec.Weights.Age != nil {
				return *p.Spec.Weights.Age
			}
		}
		return 0 // scored with the default weights
	}
	if a0, a1, fin := scoredAge(res.Rounds[0].Scorecard), scoredAge(res.Rounds[1].Scorecard), scoredAge(res.Final); a0 != 0 || a1 != 450_000 || fin != 675_000 {
		t.Errorf("scorecards echo age=%d,%d,final %d; want default,450000,675000 (scorecard shares the live spec's weights?)", a0, a1, fin)
	}
}

func TestEvolveConfigValidation(t *testing.T) {
	sys := evolveSystem()
	reqs := evolveTrace(t, sys)
	client := llm.NewClient("http://localhost:0", "")
	base := EvolveConfig{
		Client: client, Rounds: 1, Target: "evolved",
		Specs: []tournament.Spec{{Name: "evolved"}, {Name: "fifo", Preset: "fifo"}},
		Reqs:  reqs, System: sys, Seed: 1,
	}
	for name, mutate := range map[string]func(*EvolveConfig){
		"nil client":     func(c *EvolveConfig) { c.Client = nil },
		"zero rounds":    func(c *EvolveConfig) { c.Rounds = 0 },
		"missing target": func(c *EvolveConfig) { c.Target = "ghost" },
	} {
		t.Run(name, func(t *testing.T) {
			cfg := base
			mutate(&cfg)
			if _, err := Evolve(context.Background(), cfg); err == nil {
				t.Error("Evolve accepted bad config")
			}
		})
	}
}

// stubAdvisor serves /v1/evolve with whatever deltas pick returns for the
// round it is asked about.
func stubAdvisor(t *testing.T, pick func(round int) []llm.ParamDelta) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req llm.EvolveRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(llm.EvolveResponse{Rationale: "stub", Deltas: pick(req.Round)})
	}))
	t.Cleanup(ts.Close)
	return ts
}

func ageScale(v float64) []llm.ParamDelta {
	return []llm.ParamDelta{{Policy: "evolved", Param: "age_weight", Op: "scale", Value: v}}
}

func armsSimulated(reg *obs.Registry) int64 {
	return reg.Counter(obs.Label("schedbench_arms_total", "source", "simulated")).Value()
}

// TestEvolveLeavesCallerSpecsUntouched: the loop evolves its own copy of
// the target. Neither the caller's slice nor, in a chained run, the
// previous call's FinalSpec may move when a later call applies deltas.
func TestEvolveLeavesCallerSpecsUntouched(t *testing.T) {
	ts := stubAdvisor(t, func(int) []llm.ParamDelta { return ageScale(1.25) })
	sys := evolveSystem()
	reqs := evolveTrace(t, sys)
	age := int64(300_000)
	specs := []tournament.Spec{
		{Name: "fifo", Preset: "fifo"},
		{Name: "evolved", Weights: &tournament.Weights{Age: &age}},
	}
	call := func() *EvolveResult {
		t.Helper()
		res, err := Evolve(context.Background(), EvolveConfig{
			Client: llm.NewClient(ts.URL, ""), Rounds: 1, Target: "evolved",
			Specs: specs, Reqs: reqs, System: sys, Seed: 53,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := call()
	if got := *specs[1].Weights.Age; got != 300_000 || age != 300_000 {
		t.Fatalf("caller's target reads age=%d (variable %d) after one round, passed in 300000", got, age)
	}
	if got := *first.FinalSpec.Weights.Age; got != 375_000 {
		t.Fatalf("first call's FinalSpec age=%d, want 375000", got)
	}
	// Chain as loopbench and schedbench drivers do: the next call starts
	// from the previous call's final spec.
	specs[1] = first.FinalSpec
	second := call()
	if got := *first.FinalSpec.Weights.Age; got != 375_000 {
		t.Errorf("call 2 rewrote call 1's FinalSpec: age=%d, want 375000", got)
	}
	if got := *second.FinalSpec.Weights.Age; got != 468_750 {
		t.Errorf("second call's FinalSpec age=%d, want 468750", got)
	}
}

// TestEvolveRejectedDeltaLeavesSpecUntouched: a delta the loop rejects
// changes nothing. A scale out of range on a target with no weight
// overrides used to leave an empty Weights behind, so the round's Spec
// recorded "weights":{} and the trajectory showed a change that was
// refused.
func TestEvolveRejectedDeltaLeavesSpecUntouched(t *testing.T) {
	ts := stubAdvisor(t, func(int) []llm.ParamDelta {
		return append(ageScale(0.01), llm.ParamDelta{Policy: "evolved", Param: "backfill_depth", Op: "set", Value: -5})
	})
	sys := evolveSystem()
	res, err := Evolve(context.Background(), EvolveConfig{
		Client: llm.NewClient(ts.URL, ""), Rounds: 1, Target: "evolved",
		Specs: []tournament.Spec{{Name: "evolved"}, {Name: "fifo", Preset: "fifo"}},
		Reqs:  evolveTrace(t, sys), System: sys, Seed: 53,
	})
	if err != nil {
		t.Fatal(err)
	}
	round := res.Rounds[0]
	if len(round.Applied) != 0 || len(round.Rejected) != 2 {
		t.Fatalf("applied %+v, rejected %+v; want both deltas rejected", round.Applied, round.Rejected)
	}
	for what, sp := range map[string]tournament.Spec{"round 0": round.Spec, "final": res.FinalSpec} {
		raw, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		if want := `{"name":"evolved"}`; string(raw) != want {
			t.Errorf("%s spec %s after rejected deltas, want %s", what, raw, want)
		}
	}
}

// TestEvolveMemoisedMatchesFreshFields holds a three-round trajectory from
// the shared field against the same loop scoring every tournament on a
// field of its own: the evolve/v1 bytes must agree once the wall-clock
// fields are stripped.
func TestEvolveMemoisedMatchesFreshFields(t *testing.T) {
	srv := llm.NewServer("sk-test")
	srv.RatePerSec = 0
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sys := evolveSystem()
	cfg := EvolveConfig{
		Client:    llm.NewClient(ts.URL, "sk-test"),
		Rounds:    3,
		Objective: "mean_wait_sec",
		Target:    "evolved",
		Specs:     append(tournament.DefaultSpecs(), tournament.Spec{Name: "evolved"}),
		Reqs:      evolveTrace(t, sys),
		System:    sys,
		Seed:      53,
	}
	encode := func(res *EvolveResult, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		stripElapsed(res)
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	got := encode(Evolve(context.Background(), cfg))
	want := encode(evolve(context.Background(), cfg, func(specs []tournament.Spec) (*tournament.Scorecard, error) {
		return tournament.Run(tournament.Input{Specs: specs, Reqs: cfg.Reqs, System: cfg.System, Seed: cfg.Seed})
	}))
	if !bytes.Contains(got, []byte(`"applied"`)) {
		t.Fatal("no delta applied: the comparison would hold for a memo that never hits")
	}
	if !bytes.Equal(got, want) {
		t.Errorf("memoised trajectory differs from the fresh-field reference:\n--- memoised\n%s\n--- reference\n%s", got, want)
	}
}

// TestEvolveSimulatesOnlyWhatChanged counts simulations over a whole call:
// the field's distinct configurations once, plus one per tournament whose
// target actually moved — and none for a round that only rejected deltas
// or scaled by one.
func TestEvolveSimulatesOnlyWhatChanged(t *testing.T) {
	sys := evolveSystem()
	reqs := evolveTrace(t, sys)
	// Eight arms, seven configurations: "evolved" starts as default's twin.
	specs := append(tournament.DefaultSpecs(), tournament.Spec{Name: "evolved"})
	const distinct = 7

	for _, tc := range []struct {
		name   string
		rounds int
		pick   func(round int) []llm.ParamDelta
		want   int64
	}{
		{"every round applies", 3, func(int) []llm.ParamDelta { return ageScale(1.5) }, distinct + 3},
		{"rejected only", 2, func(int) []llm.ParamDelta { return ageScale(99) }, distinct},
		{"scale by one", 2, func(int) []llm.ParamDelta { return ageScale(1) }, distinct},
		{"moves once then holds", 3, func(r int) []llm.ParamDelta {
			if r == 0 {
				return ageScale(1.5)
			}
			return ageScale(99)
		}, distinct + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := stubAdvisor(t, tc.pick)
			reg := obs.NewRegistry()
			res, err := Evolve(context.Background(), EvolveConfig{
				Client: llm.NewClient(ts.URL, ""), Rounds: tc.rounds, Target: "evolved",
				Specs: specs, Reqs: reqs, System: sys, Seed: 53, Metrics: reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rounds) != tc.rounds {
				t.Fatalf("%d rounds, want %d", len(res.Rounds), tc.rounds)
			}
			if got := armsSimulated(reg); got != tc.want {
				t.Errorf("schedbench_arms_total{source=\"simulated\"} = %d, want %d", got, tc.want)
			}
			arms := int64(len(specs) * (tc.rounds + 1))
			memo := reg.Counter(obs.Label("schedbench_arms_total", "source", "memoised")).Value()
			if memo != arms-tc.want {
				t.Errorf("memoised = %d, want %d of %d arms", memo, arms-tc.want, arms)
			}
		})
	}
}

// stripElapsed zeroes the wall-clock fields in every scorecard of the
// result, for deterministic serialisation.
func stripElapsed(r *EvolveResult) {
	strip := func(sc *tournament.Scorecard) {
		if sc == nil {
			return
		}
		sc.ElapsedMS = 0
		for i := range sc.Policies {
			sc.Policies[i].ElapsedMS = 0
		}
	}
	for i := range r.Rounds {
		strip(r.Rounds[i].Scorecard)
	}
	strip(r.Final)
}
