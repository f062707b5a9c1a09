// Package sched is an event-driven Slurm-like scheduler simulator. It
// executes the synthetic submissions from internal/tracegen against a
// cluster model and produces the accounting records the analysis workflow
// consumes — including realistic queue waits, multifactor priorities,
// EASY-backfill placement (the SchedBackfill flag the paper's Backfill
// indicator derives from), timeout enforcement, cancellations while pending
// or running, and per-step records.
//
// The simulator is the stand-in for OLCF's production scheduler: the
// phenomena the paper's figures visualise (wait-time stratification,
// backfilled jobs skewing short, walltime over-estimation) emerge from the
// scheduling dynamics rather than being painted onto the trace.
package sched

import (
	"errors"
	"fmt"
	"time"

	"slurmsight/internal/cluster"
	"slurmsight/internal/obs"
)

// Config carries the scheduling-policy knobs, mirroring the Slurm
// multifactor priority plugin and backfill plugin parameters.
type Config struct {
	System *cluster.System

	// Multifactor priority weights. Priority at scheduling time is
	//   Base + AgeWeight·min(age/AgeMax, 1) + SizeWeight·(nodes/total)
	//        + FairShareWeight·2^(−usage/halfUsage) + QOS weight.
	Base            int64
	AgeWeight       int64
	AgeMax          time.Duration
	SizeWeight      int64
	FairShareWeight int64

	// Priority names the priority policy: "multifactor" (empty defaults
	// here) or "fifo". See PriorityByName.
	Priority string

	// Backfill names the backfill strategy: "easy" (empty defaults
	// here), "conservative", or "none" — the ablation baseline, pure
	// priority-order FIFO with a blocking head. See BackfillByName.
	Backfill string

	// NodeSelect names the node-selection policy: "pool" (the default
	// fragmentation-free scalar model), "firstfit", or "bestfit". See
	// SelectorByName.
	NodeSelect string

	// EnableNodeSharing lets sub-node requests (Request.Cores > 0) pack
	// onto shared nodes instead of each occupying a full node — the
	// node-sharing policy the paper lists among the levers this workflow
	// should inform. The core-pool model ignores per-node fragmentation
	// (a deliberate simplification at this fidelity).
	EnableNodeSharing bool

	// BackfillDepth bounds how many queued jobs each backfill pass
	// considers, like Slurm's bf_max_job_test.
	BackfillDepth int

	// FairShareHalfLife is the decay time constant of per-user usage.
	FairShareHalfLife time.Duration

	// Seed drives the synthesis of per-step usage numbers.
	Seed int64

	// Reservations are advance node reservations (e.g. daily windows for
	// experiment-coupled near-real-time work). During a reservation's
	// window its nodes are carved out of the general pool as they free
	// up; only jobs tagged with the reservation may use them, and only
	// if they fit entirely inside the window. When the window closes,
	// unclaimed capacity returns to the general pool and still-pending
	// tagged jobs fall back to general scheduling.
	Reservations []Reservation

	// Metrics, when non-nil, publishes simulator counters and gauges
	// under sched_* names (events processed, scheduling passes and the
	// pending depth summed over them, backfill attempts/starts, queue
	// depth, jobs running) and the run's wall time split by phase
	// (sched_phase_ns_total{phase=…}, see phases.go). Nil keeps the hot
	// path unmetered: no counter writes and no clock reads.
	Metrics *obs.Registry
}

// Reservation is one advance node reservation.
type Reservation struct {
	Name       string
	Nodes      int
	Start, End time.Time
}

// DefaultConfig returns production-like policy for a system: age and fair
// share dominate, size is rewarded (capability scheduling), backfill on.
func DefaultConfig(sys *cluster.System) Config {
	return Config{
		System:            sys,
		Base:              100_000,
		AgeWeight:         300_000,
		AgeMax:            14 * 24 * time.Hour,
		SizeWeight:        400_000,
		FairShareWeight:   200_000,
		BackfillDepth:     500,
		FairShareHalfLife: 7 * 24 * time.Hour,
		Seed:              1,
	}
}

// Typed configuration errors, matchable with errors.Is: a caller handing
// sched.New a bad config gets a diagnosable rejection up front instead of
// undefined behaviour deep in a run.
var (
	// ErrNilSystem rejects a configuration without a cluster model.
	ErrNilSystem = errors.New("sched: config needs a system")
	// ErrNegativeWeight rejects negative multifactor priority weights.
	ErrNegativeWeight = errors.New("sched: negative priority weight")
	// ErrBadDepth rejects a negative BackfillDepth.
	ErrBadDepth = errors.New("sched: negative backfill depth")
	// ErrBadTimeConstant rejects non-positive AgeMax/FairShareHalfLife.
	ErrBadTimeConstant = errors.New("sched: bad time constant")
	// ErrUnknownPolicy rejects unresolvable policy names.
	ErrUnknownPolicy = errors.New("sched: unknown policy")
)

// Fingerprint renders every setting that decides a run's outcome: two
// configs with equal fingerprints simulate the same requests on the same
// System to the same Result. Policy names are resolved first, so an empty
// name and the default it stands for agree. System is left to the caller
// (the tournament binds one per field) and Metrics only observes. The
// whole struct is rendered rather than a field list so that a setting
// added later joins the key without anyone remembering it; at worst a
// pointer-typed one prints its address and two equal configs compare
// unequal, which costs a simulation and never a wrong result.
func (c *Config) Fingerprint() string {
	k := *c
	k.System, k.Metrics = nil, nil
	if k.Backfill == "" {
		k.Backfill = "easy"
	}
	if k.Priority == "" {
		k.Priority = "multifactor"
	}
	if k.NodeSelect == "" {
		k.NodeSelect = "pool"
	}
	return fmt.Sprintf("%+v", k)
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.System == nil {
		return ErrNilSystem
	}
	if err := c.System.Validate(); err != nil {
		return err
	}
	if c.AgeMax <= 0 || c.FairShareHalfLife <= 0 {
		return fmt.Errorf("%w: AgeMax and FairShareHalfLife must be positive", ErrBadTimeConstant)
	}
	if c.AgeWeight < 0 || c.SizeWeight < 0 || c.FairShareWeight < 0 {
		return fmt.Errorf("%w: age=%d size=%d fairshare=%d",
			ErrNegativeWeight, c.AgeWeight, c.SizeWeight, c.FairShareWeight)
	}
	if c.BackfillDepth < 0 {
		return fmt.Errorf("%w: %d", ErrBadDepth, c.BackfillDepth)
	}
	if _, err := PriorityByName(c.Priority, c); err != nil {
		return fmt.Errorf("%w: priority %q", ErrUnknownPolicy, c.Priority)
	}
	if _, err := BackfillByName(c.Backfill); err != nil {
		return fmt.Errorf("%w: backfill %q", ErrUnknownPolicy, c.Backfill)
	}
	if _, err := SelectorByName(c.NodeSelect); err != nil {
		return fmt.Errorf("%w: node selector %q", ErrUnknownPolicy, c.NodeSelect)
	}
	seen := map[string]bool{}
	for _, r := range c.Reservations {
		if r.Name == "" {
			return errors.New("sched: reservation needs a name")
		}
		if seen[r.Name] {
			return errors.New("sched: duplicate reservation " + r.Name)
		}
		seen[r.Name] = true
		if r.Nodes <= 0 || r.Nodes > c.System.Nodes {
			return errors.New("sched: reservation " + r.Name + " node count out of range")
		}
		if !r.Start.Before(r.End) {
			return errors.New("sched: reservation " + r.Name + " window is empty")
		}
		if !inRange(r.Start) || !inRange(r.End) {
			return errors.New("sched: reservation " + r.Name + " window is outside what Unix nanoseconds hold (1678 to 2262)")
		}
	}
	return nil
}

// RunStats aggregates simulator-level outcomes for ablations and sanity
// checks.
type RunStats struct {
	JobsCompleted int
	JobsFailed    int
	JobsCancelled int
	JobsTimeout   int
	JobsNodeFail  int
	JobsOOM       int
	Backfilled    int
	NeverStarted  int // cancelled while pending

	// TotalWait and MaxWait aggregate per-job queue wait, defined as the
	// time a job spends eligible-but-pending, summed across scheduling
	// segments. For a plain job this is start − submit. A dependent's
	// wait starts at dependency release (its eligible time), not at
	// submission. A preempted job opens a new segment at eviction: the
	// time it spent running before the eviction is credited, never
	// counted as wait — so wait = Σ(startᵢ − eligibleᵢ) over segments.
	// TotalWait saturates at the int64 bound instead of overflowing on
	// very large contended traces.
	TotalWait       time.Duration
	MaxWait         time.Duration
	NodeSecondsBusy float64
	NodeSecondsCap  float64 // capacity over the simulated span

	// Preemptions counts evictions of preemptible jobs by urgent work;
	// PreemptedLost is the partial runtime those evictions discarded.
	Preemptions   int
	PreemptedLost time.Duration
	// DependencyCancelled counts jobs cancelled because an upstream
	// dependency failed.
	DependencyCancelled int
	// ReservationStarts counts jobs dispatched inside a reservation.
	ReservationStarts int
}

// Utilization returns busy node-seconds over capacity node-seconds.
func (s *RunStats) Utilization() float64 {
	if s.NodeSecondsCap <= 0 {
		return 0
	}
	return s.NodeSecondsBusy / s.NodeSecondsCap
}

// MeanWait returns the average queue wait across started jobs.
func (s *RunStats) MeanWait() time.Duration {
	started := s.JobsCompleted + s.JobsFailed + s.JobsTimeout + s.JobsNodeFail + s.JobsOOM +
		s.JobsCancelled - s.NeverStarted
	if started <= 0 {
		return 0
	}
	return s.TotalWait / time.Duration(started)
}
