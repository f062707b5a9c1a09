package core

import (
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
	res.StripElapsed()
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
