package llm

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
)

// The evolve endpoint closes the paper's loop: the workflow does not just
// explain scheduling outcomes, it proposes policy changes. The client
// posts a policy-tournament scorecard; the model answers with parameter
// deltas against one target policy. The mock server's advisor is a
// deterministic heuristic over the scorecard (like the analyst, it trades
// model weights for checkability), so the whole evolution loop runs
// offline and reproducibly.
//
// The package reads the scorecard through a minimal structural view
// (scoreView) rather than importing the tournament package: the wire
// contract is the JSON shape, not a Go type, which keeps llm free of a
// dependency on the scheduler stack.

// ParamDelta is one proposed change to a named policy's parameters.
type ParamDelta struct {
	// Policy is the target spec name the delta applies to.
	Policy string `json:"policy"`
	// Param is the parameter: age_weight, size_weight, fair_share_weight,
	// base, backfill_depth (numeric); backfill, node_select, priority
	// (string-valued).
	Param string `json:"param"`
	// Op is "scale" (numeric: multiply by Value) or "set" (numeric
	// absolute Value, or string-valued Str).
	Op string `json:"op"`
	// Value carries the numeric operand for scale/set.
	Value float64 `json:"value,omitempty"`
	// Str carries the operand for string-valued params.
	Str string `json:"str,omitempty"`
	// Reason is the model's one-line justification.
	Reason string `json:"reason,omitempty"`
}

// EvolveRequest is the /v1/evolve payload.
type EvolveRequest struct {
	// Scorecard is the schedbench/v1 scorecard JSON, passed through
	// verbatim.
	Scorecard json.RawMessage `json:"scorecard"`
	// Target names the policy being evolved; deltas apply only to it.
	Target string `json:"target"`
	// Objective selects the metric: "mean_wait_sec" or "mean_slowdown"
	// (minimised), or "utilization" (maximised). Empty means
	// mean_slowdown.
	Objective string `json:"objective,omitempty"`
	// Round is the evolution iteration, echoed for auditability.
	Round int `json:"round"`
}

// EvolveResponse is the /v1/evolve result. An empty Deltas slice means
// the advisor considers the target converged.
type EvolveResponse struct {
	Deltas    []ParamDelta `json:"deltas"`
	Rationale string       `json:"rationale"`
	Model     string       `json:"model"`
}

const evolveBodyLimit = 1 << 20

// Evolve posts a scorecard and returns the model's proposed parameter
// deltas for the target policy.
func (c *Client) Evolve(ctx context.Context, req EvolveRequest) (*EvolveResponse, error) {
	if len(req.Scorecard) == 0 {
		return nil, fmt.Errorf("llm: Evolve needs a scorecard")
	}
	if req.Target == "" {
		return nil, fmt.Errorf("llm: Evolve needs a target policy")
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var out EvolveResponse
	if err := c.do(ctx, http.MethodPost, "/v1/evolve", body, evolveBodyLimit, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// scoreView is the structural slice of the schedbench/v1 scorecard the
// advisor reads — a deliberate mirror of the tournament JSON, so llm
// does not import the scheduler stack.
type scoreView struct {
	Schema   string `json:"schema"`
	Policies []struct {
		Name         string  `json:"name"`
		MeanWaitSec  float64 `json:"mean_wait_sec"`
		MeanSlowdown float64 `json:"mean_slowdown"`
		Utilization  float64 `json:"utilization"`
		BackfillFrac float64 `json:"backfill_frac"`
		Spec         struct {
			Preset     string `json:"preset"`
			Backfill   string `json:"backfill"`
			NodeSelect string `json:"node_select"`
		} `json:"spec"`
	} `json:"policies"`
}

func (s *Server) handleEvolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, apiError{"POST only"})
		return
	}
	if status, wait, err := s.authorize(r); err != nil {
		s.deny(w, status, wait, err)
		return
	}
	var req EvolveRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{"malformed request: " + err.Error()})
		return
	}
	var view scoreView
	if err := json.Unmarshal(req.Scorecard, &view); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{"unreadable scorecard: " + err.Error()})
		return
	}
	resp, err := advise(view, req.Target, req.Objective)
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, apiError{err.Error()})
		return
	}
	resp.Model = s.ModelName
	writeJSON(w, http.StatusOK, resp)
}

// advise is the canned evolution advisor: a deterministic heuristic that
// compares the target policy against the best-scoring other arm and
// proposes moving the target toward the winner's emphasis.
func advise(view scoreView, target, objective string) (*EvolveResponse, error) {
	if view.Schema != "schedbench/v1" {
		return nil, fmt.Errorf("unsupported scorecard schema %q", view.Schema)
	}
	if objective == "" {
		objective = "mean_slowdown"
	}
	metric := func(i int) (float64, error) {
		p := &view.Policies[i]
		switch objective {
		case "mean_slowdown":
			return p.MeanSlowdown, nil
		case "mean_wait_sec":
			return p.MeanWaitSec, nil
		case "utilization":
			return -p.Utilization, nil // maximise → minimise the negation
		}
		return 0, fmt.Errorf("unknown objective %q", objective)
	}

	targetIdx := -1
	for i := range view.Policies {
		if view.Policies[i].Name == target {
			targetIdx = i
		}
	}
	if targetIdx < 0 {
		return nil, fmt.Errorf("target policy %q not in scorecard", target)
	}
	if len(view.Policies) < 2 {
		return nil, fmt.Errorf("scorecard needs at least two policies to compare")
	}

	// Rank all policies by the objective; ties break by name so the
	// advice is deterministic regardless of scorecard order.
	order := make([]int, len(view.Policies))
	for i := range order {
		order[i] = i
	}
	vals := make([]float64, len(view.Policies))
	for i := range vals {
		v, err := metric(i)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	sort.SliceStable(order, func(a, b int) bool {
		if vals[order[a]] != vals[order[b]] {
			return vals[order[a]] < vals[order[b]]
		}
		return view.Policies[order[a]].Name < view.Policies[order[b]].Name
	})

	best := order[0]
	if best == targetIdx {
		return &EvolveResponse{
			Rationale: fmt.Sprintf("%s already leads on %s; no changes proposed", target, objective),
		}, nil
	}
	winner := &view.Policies[best]
	tgt := &view.Policies[targetIdx]

	var deltas []ParamDelta
	push := func(d ParamDelta) {
		d.Policy = target
		deltas = append(deltas, d)
	}
	// Move the target's weight emphasis a step toward the winning arm's
	// preset character.
	switch winner.Spec.Preset {
	case "capability":
		push(ParamDelta{Param: "size_weight", Op: "scale", Value: 1.5,
			Reason: fmt.Sprintf("%s (size-dominant) beats %s on %s", winner.Name, target, objective)})
	case "aging":
		push(ParamDelta{Param: "age_weight", Op: "scale", Value: 1.5,
			Reason: fmt.Sprintf("%s (age-dominant) beats %s on %s", winner.Name, target, objective)})
	case "fairshare":
		push(ParamDelta{Param: "fair_share_weight", Op: "scale", Value: 1.5,
			Reason: fmt.Sprintf("%s (fair-share-dominant) beats %s on %s", winner.Name, target, objective)})
	case "fifo":
		push(ParamDelta{Param: "size_weight", Op: "scale", Value: 0.67,
			Reason: fmt.Sprintf("plain submission order (%s) beats %s: size priority is hurting %s", winner.Name, target, objective)})
	}
	// Adopt the winner's backfill strategy when it differs.
	if winner.Spec.Backfill != tgt.Spec.Backfill && winner.Spec.Backfill != "" {
		push(ParamDelta{Param: "backfill", Op: "set", Str: winner.Spec.Backfill,
			Reason: fmt.Sprintf("%s's %s backfill outperforms on %s", winner.Name, winner.Spec.Backfill, objective)})
	}
	if len(deltas) == 0 {
		// The winner is an un-presetted arm (e.g. the production
		// default): nudge the objective's natural lever.
		lever := "age_weight"
		if objective == "utilization" {
			lever = "size_weight"
		}
		push(ParamDelta{Param: lever, Op: "scale", Value: 1.25,
			Reason: fmt.Sprintf("%s leads on %s without a distinguishing preset; nudging %s", winner.Name, objective, lever)})
	}
	return &EvolveResponse{
		Deltas: deltas,
		Rationale: fmt.Sprintf("round advice: move %s toward %s (best %s: %.4g vs target %.4g)",
			target, winner.Name, objective, vals[best], vals[targetIdx]),
	}, nil
}
