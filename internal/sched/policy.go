package sched

import (
	"fmt"
	"math"
	"time"
)

// The policy layer decomposes the scheduling decisions that used to be
// welded into the Simulator — priority computation, backfill strategy, and
// node selection — into three small interfaces. The default composition
// (multifactor priority, EASY backfill, pool selection) reproduces the
// pre-refactor simulator bit for bit; the golden determinism tests pin it.
//
// Policies are resolved by name so a composition is serialisable: the
// tournament harness and the LLM evolution loop both describe a policy as
// JSON and rebuild it with PriorityByName / BackfillByName /
// SelectorByName.

// PriorityPolicy computes a pending job's priority as three independently
// truncated int64 terms. The split mirrors the simulator's hot path: the
// static term is cached at submission, the age term is recomputed per
// pass, and the fair term is memoised per (user, pass). The job's
// priority is the plain int64 sum of the three, so any implementation
// whose terms match the legacy formulas reproduces legacy priorities
// exactly (int64 addition is associative).
type PriorityPolicy interface {
	Name() string
	// Static is the submission-time-invariant component: base priority
	// plus the size and QoS contributions. sizeFrac is the job's core
	// allocation over the system total.
	Static(sizeFrac float64, qosWeight int64) int64
	// Age is the age factor's contribution from an age in nanoseconds,
	// saturating at the policy's age horizon.
	Age(ageNs int64) int64
	// AgeSlope bounds the age term's growth: Age(age) ≤ AgeSlope()·age for
	// every age ≥ 0, up to float rounding, capped or not. The pending queue
	// orders each user's jobs by it (queue.go); 0 says the age term is 0.
	AgeSlope() float64
	// Fair is the fair-share contribution given the user's decayed usage
	// in node-seconds.
	Fair(decayedUsage float64) int64
}

// MultifactorPriority is the Slurm-style multifactor plugin: the weighted
// sum of base, age, size, fair-share, and QoS factors the simulator has
// always computed. Build one with newMultifactorPriority so the derived
// constants match the configuration.
type MultifactorPriority struct {
	Base            int64
	AgeWeight       int64
	AgeMax          time.Duration
	SizeWeight      int64
	FairShareWeight int64

	// share is the fair-share nominal usage scale (system size times the
	// decay half-life, scaled); ageFull the saturated age term. Both are
	// derived in the constructor with the exact float conversions the
	// pre-refactor simulator used.
	share   float64
	ageFull int64
}

// newMultifactorPriority derives the multifactor policy from a validated
// configuration.
func newMultifactorPriority(cfg *Config) *MultifactorPriority {
	return &MultifactorPriority{
		Base:            cfg.Base,
		AgeWeight:       cfg.AgeWeight,
		AgeMax:          cfg.AgeMax,
		SizeWeight:      cfg.SizeWeight,
		FairShareWeight: cfg.FairShareWeight,
		share:           float64(cfg.System.Nodes) * cfg.FairShareHalfLife.Seconds() / 64,
		ageFull:         int64(float64(cfg.AgeWeight)),
	}
}

func (p *MultifactorPriority) Name() string { return "multifactor" }

// Static computes base + size + QoS, truncating the size term exactly as
// the legacy submission path did.
func (p *MultifactorPriority) Static(sizeFrac float64, qosWeight int64) int64 {
	return p.Base + int64(float64(p.SizeWeight)*sizeFrac) + qosWeight
}

// Age saturates at AgeMax; between 0 and saturation the term is the
// weighted linear ramp.
func (p *MultifactorPriority) Age(ageNs int64) int64 {
	if ageNs <= 0 {
		return 0
	}
	if ageNs >= int64(p.AgeMax) {
		return p.ageFull
	}
	return int64(float64(p.AgeWeight) * (float64(ageNs) / float64(p.AgeMax)))
}

// AgeSlope is the ramp's slope, AgeWeight per AgeMax: a saturated term,
// AgeWeight, is at most the slope times any age past AgeMax.
func (p *MultifactorPriority) AgeSlope() float64 {
	return float64(p.AgeWeight) / float64(p.AgeMax)
}

// Fair maps decayed usage through the exponential fair-share curve
// 2^(−usage/share).
func (p *MultifactorPriority) Fair(decayedUsage float64) int64 {
	return int64(float64(p.FairShareWeight) * math.Exp2(-decayedUsage/p.share))
}

// FIFOPriority orders jobs purely by submission: every term is zero, so
// the queue's deterministic tie-break (submission sequence ascending)
// becomes the whole order. It is the classic first-come-first-served
// baseline the multifactor policy is measured against.
type FIFOPriority struct{}

func (FIFOPriority) Name() string                { return "fifo" }
func (FIFOPriority) Static(float64, int64) int64 { return 0 }
func (FIFOPriority) Age(int64) int64             { return 0 }
func (FIFOPriority) AgeSlope() float64           { return 0 }
func (FIFOPriority) Fair(float64) int64          { return 0 }

// PriorityByName resolves a priority policy for a validated config:
// "multifactor" (or empty, the default) and "fifo".
func PriorityByName(name string, cfg *Config) (PriorityPolicy, error) {
	switch name {
	case "", "multifactor":
		return newMultifactorPriority(cfg), nil
	case "fifo":
		return FIFOPriority{}, nil
	}
	return nil, fmt.Errorf("sched: unknown priority policy %q", name)
}

// PriorityNames lists the resolvable priority policies.
func PriorityNames() []string { return []string{"multifactor", "fifo"} }
