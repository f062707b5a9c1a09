package core

import (
	"context"
	"fmt"

	"slurmsight/internal/cluster"
	"slurmsight/internal/llm"
	"slurmsight/internal/obs"
	"slurmsight/internal/sched"
	"slurmsight/internal/sched/tournament"
	"slurmsight/internal/tracegen"
)

// The evolution loop is the paper's "evolving HPC scheduling practices"
// leg made concrete: run a policy tournament, send the scorecard to the
// model, parse its proposed parameter deltas, apply the ones that pass
// validation to the target policy, re-simulate, re-score, repeat. Every
// round's scorecard, proposals, applications, and rejections are recorded
// so the whole trajectory is auditable — the workflow never trusts the
// model blindly: a delta outside bounds (or for a parameter that does not
// exist) is logged and dropped, never applied.

// EvolveConfig parameterises the loop.
type EvolveConfig struct {
	// Client talks to the /v1/evolve endpoint.
	Client *llm.Client
	// Rounds bounds the evolve→re-simulate iterations (≥1).
	Rounds int
	// Objective is the metric the advisor optimises: "mean_slowdown"
	// (default), "mean_wait_sec", or "utilization".
	Objective string
	// Target names the spec being evolved. It must appear in Specs.
	Target string
	// Specs is the tournament field, target included; the non-target
	// arms stay fixed and serve as the comparison frontier.
	Specs []tournament.Spec

	// Reqs/System/Seed define the workload every round replays.
	Reqs   []tracegen.Request
	System *cluster.System
	Seed   int64

	// Metrics and Tracer flow into the tournament runs; Metrics also
	// counts evolution rounds and delta outcomes under evolve_* names.
	Metrics *obs.Registry
	Tracer  *obs.Tracer
}

// RejectedDelta records one proposal that failed validation and why.
type RejectedDelta struct {
	Delta  llm.ParamDelta `json:"delta"`
	Reason string         `json:"reason"`
}

// EvolveRound is one iteration's full audit record.
type EvolveRound struct {
	Round     int                   `json:"round"`
	Scorecard *tournament.Scorecard `json:"scorecard"`
	Rationale string                `json:"rationale,omitempty"`
	Proposed  []llm.ParamDelta      `json:"proposed,omitempty"`
	Applied   []llm.ParamDelta      `json:"applied,omitempty"`
	Rejected  []RejectedDelta       `json:"rejected,omitempty"`
	// Spec is the target spec after this round's applications.
	Spec tournament.Spec `json:"spec"`
}

// EvolveResult is the full trajectory plus the final re-score.
type EvolveResult struct {
	Schema    string                `json:"schema"` // "evolve/v1"
	Objective string                `json:"objective"`
	Target    string                `json:"target"`
	Rounds    []EvolveRound         `json:"rounds"`
	Final     *tournament.Scorecard `json:"final"`
	FinalSpec tournament.Spec       `json:"final_spec"`
	Converged bool                  `json:"converged"`
}

// weight bounds for applied deltas: a proposal pushing a weight outside
// [0, maxWeight] or a depth outside [1, maxDepth] is rejected, keeping
// the simulator in its validated regime no matter what the model says.
const (
	maxWeight = 10_000_000
	maxDepth  = 10_000
	minScale  = 0.1
	maxScale  = 10.0
)

// Evolve runs the tournament→advise→apply loop for cfg.Rounds rounds (or
// until the advisor returns no deltas) and returns the audit trajectory.
//
// The whole call shares one tournament field: only the target's
// configuration moves between tournaments, so every tournament after the
// first simulates at most that one arm, and none when no applied delta
// changed it.
func Evolve(ctx context.Context, cfg EvolveConfig) (*EvolveResult, error) {
	field := tournament.NewField(cfg.Reqs, cfg.System, cfg.Seed, cfg.Metrics, cfg.Tracer)
	return evolve(ctx, cfg, field.Run)
}

// evolve is the loop over a given way of scoring the field; tests hand it
// an un-memoised one as the reference.
func evolve(ctx context.Context, cfg EvolveConfig, score func([]tournament.Spec) (*tournament.Scorecard, error)) (*EvolveResult, error) {
	if cfg.Client == nil {
		return nil, fmt.Errorf("evolve: needs an LLM client")
	}
	if cfg.Rounds < 1 {
		return nil, fmt.Errorf("evolve: rounds must be ≥1, got %d", cfg.Rounds)
	}
	if cfg.Objective == "" {
		cfg.Objective = "mean_slowdown"
	}
	if cfg.Target == "" {
		cfg.Target = "evolved"
	}
	targetIdx := -1
	for i := range cfg.Specs {
		if cfg.Specs[i].Name == cfg.Target {
			targetIdx = i
		}
	}
	if targetIdx < 0 {
		return nil, fmt.Errorf("evolve: target %q not in specs", cfg.Target)
	}

	span := cfg.Tracer.Start("evolve.loop")
	span.SetAttr("target", cfg.Target)
	span.SetAttr("objective", cfg.Objective)
	defer span.End()

	// The target is cloned: applyDelta writes through Spec.Weights, which
	// a plain slice copy would still share with the caller's spec (and, in
	// a chained run, with the previous call's FinalSpec).
	specs := append([]tournament.Spec(nil), cfg.Specs...)
	specs[targetIdx] = specs[targetIdx].Clone()
	res := &EvolveResult{Schema: "evolve/v1", Objective: cfg.Objective, Target: cfg.Target}

	for round := 0; round < cfg.Rounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sc, err := score(specs)
		if err != nil {
			return nil, fmt.Errorf("evolve round %d: %w", round, err)
		}
		raw, err := sc.EncodeJSON()
		if err != nil {
			return nil, err
		}
		resp, err := cfg.Client.Evolve(ctx, llm.EvolveRequest{
			Scorecard: raw,
			Target:    cfg.Target,
			Objective: cfg.Objective,
			Round:     round,
		})
		if err != nil {
			return nil, fmt.Errorf("evolve round %d: %w", round, err)
		}
		cfg.Metrics.Counter("evolve_rounds_total").Inc()

		rec := EvolveRound{
			Round:     round,
			Scorecard: sc,
			Rationale: resp.Rationale,
			Proposed:  resp.Deltas,
		}
		for _, d := range resp.Deltas {
			if reason := applyDelta(&specs[targetIdx], cfg.System, cfg.Seed, d); reason != "" {
				rec.Rejected = append(rec.Rejected, RejectedDelta{Delta: d, Reason: reason})
				cfg.Metrics.Counter("evolve_deltas_rejected_total").Inc()
				span.Event(fmt.Sprintf("round %d: rejected %s: %s", round, d.Param, reason))
			} else {
				rec.Applied = append(rec.Applied, d)
				cfg.Metrics.Counter("evolve_deltas_applied_total").Inc()
			}
		}
		rec.Spec = specs[targetIdx].Clone()
		res.Rounds = append(res.Rounds, rec)

		if len(resp.Deltas) == 0 {
			res.Converged = true
			break
		}
	}

	// Final re-score so the trajectory always ends with the evolved
	// spec's measured outcome, applied deltas included.
	final, err := score(specs)
	if err != nil {
		return nil, fmt.Errorf("evolve final score: %w", err)
	}
	res.Final = final
	res.FinalSpec = specs[targetIdx].Clone()
	return res, nil
}

// applyDelta validates one proposal against the target spec and applies
// it in place. The returned string is empty on success, or the rejection
// reason. Validation is belt and braces: structural checks here, then a
// full sched.Config materialisation so nothing invalid survives.
func applyDelta(sp *tournament.Spec, sys *cluster.System, seed int64, d llm.ParamDelta) string {
	if d.Policy != sp.Name {
		return fmt.Sprintf("delta targets %q, evolving %q", d.Policy, sp.Name)
	}
	if d.Op != "scale" && d.Op != "set" {
		return fmt.Sprintf("unknown op %q", d.Op)
	}

	// Numeric params operate on the materialised current value so
	// "scale" composes across rounds.
	cur, err := sp.Config(sys, seed)
	if err != nil {
		return fmt.Sprintf("current spec invalid: %v", err)
	}

	apply := func(field **int64, current int64) string {
		next := current
		switch d.Op {
		case "scale":
			if d.Value < minScale || d.Value > maxScale {
				return fmt.Sprintf("scale %.3g outside [%g, %g]", d.Value, minScale, maxScale)
			}
			next = int64(float64(current) * d.Value)
		case "set":
			next = int64(d.Value)
		}
		if next < 0 || next > maxWeight {
			return fmt.Sprintf("resulting weight %d outside [0, %d]", next, maxWeight)
		}
		*field = &next
		return ""
	}

	var reason string
	switch d.Param {
	case "age_weight":
		ensureWeights(sp)
		reason = apply(&sp.Weights.Age, cur.AgeWeight)
	case "size_weight":
		ensureWeights(sp)
		reason = apply(&sp.Weights.Size, cur.SizeWeight)
	case "fair_share_weight":
		ensureWeights(sp)
		reason = apply(&sp.Weights.FairShare, cur.FairShareWeight)
	case "base":
		ensureWeights(sp)
		reason = apply(&sp.Weights.Base, cur.Base)
	case "backfill_depth":
		if d.Op != "set" {
			return "backfill_depth only supports op=set"
		}
		depth := int(d.Value)
		if depth < 1 || depth > maxDepth {
			return fmt.Sprintf("depth %d outside [1, %d]", depth, maxDepth)
		}
		sp.BackfillDepth = depth
	case "backfill":
		if d.Op != "set" || d.Str == "" {
			return "backfill needs op=set with a strategy name"
		}
		if _, err := sched.BackfillByName(d.Str); err != nil {
			return err.Error()
		}
		sp.Backfill = d.Str
	case "node_select":
		if d.Op != "set" || d.Str == "" {
			return "node_select needs op=set with a selector name"
		}
		if _, err := sched.SelectorByName(d.Str); err != nil {
			return err.Error()
		}
		sp.NodeSelect = d.Str
	case "priority":
		if d.Op != "set" || d.Str == "" {
			return "priority needs op=set with a policy name"
		}
		dc := sched.DefaultConfig(sys)
		if _, err := sched.PriorityByName(d.Str, &dc); err != nil {
			return err.Error()
		}
		sp.Priority = d.Str
	default:
		return fmt.Sprintf("unknown param %q", d.Param)
	}
	if reason != "" {
		return reason
	}
	// Final safety: the mutated spec must still materialise.
	if _, err := sp.Config(sys, seed); err != nil {
		return fmt.Sprintf("mutated spec invalid: %v", err)
	}
	return ""
}

func ensureWeights(sp *tournament.Spec) {
	if sp.Weights == nil {
		sp.Weights = &tournament.Weights{}
	}
}
