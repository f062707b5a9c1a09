// Package tournament races N scheduling-policy configurations over the
// same workload trace and emits a deterministic comparative scorecard —
// the quantitative artifact the paper's workflow feeds back to operators
// (and, in this repo, to the LLM evolution loop) when asking whether a
// policy change would improve the metrics users feel: queue wait,
// slowdown, backfill share, utilization.
//
// A tournament is run on a Field: one immutable trace (the simulator never
// mutates its input; it orders via an index permutation) and a memo of
// every configuration simulated on it. The simulator is deterministic in
// (config, requests, seed), so a field simulates each distinct
// materialised configuration once, on at most GOMAXPROCS workers with the
// others it has not seen, and an N-policy tournament costs one trace
// generation and at most N simulations — one, in the evolution loop, for
// every round after the first. A scored simulation gives its run storage
// back (sched.Result.Release), so the next one, in this round or a later
// one, runs in it. Everything in the scorecard except the wall-clock
// elapsed_ms fields is a pure function of the trace and the policy set:
// byte-identical across runs and across memo hits, which CI asserts.
package tournament

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"slurmsight/internal/cluster"
	"slurmsight/internal/obs"
	"slurmsight/internal/pool"
	"slurmsight/internal/sched"
	"slurmsight/internal/tracegen"
)

// Schema identifies the scorecard JSON layout. Consumers (CI assertions,
// the evolution loop, EXPERIMENTS.md) match on it; bump it when a field
// changes meaning, not when fields are added.
const Schema = "schedbench/v1"

// Spec names one policy configuration in a serialisable form: a weight
// preset plus overrides. The zero Spec (plus a Name) is the production
// default composition.
type Spec struct {
	Name string `json:"name"`
	// Preset names a sched weight preset (see sched.ApplyPreset) applied before the overrides.
	Preset string `json:"preset,omitempty"`
	// Priority / Backfill / NodeSelect override the policy names
	// resolved by sched.PriorityByName / BackfillByName / SelectorByName.
	Priority   string `json:"priority,omitempty"`
	Backfill   string `json:"backfill,omitempty"`
	NodeSelect string `json:"node_select,omitempty"`
	// BackfillDepth overrides the pass depth when positive.
	BackfillDepth int `json:"backfill_depth,omitempty"`
	// NodeSharing enables sub-node packing.
	NodeSharing bool `json:"node_sharing,omitempty"`
	// Weights overrides individual multifactor weights after the preset;
	// nil fields inherit.
	Weights *Weights `json:"weights,omitempty"`
}

// Weights are optional per-factor overrides; nil pointers inherit the
// preset (or default) value. Pointer fields keep "unset" distinct from
// zero so the evolution loop can pin a single weight to 0.
type Weights struct {
	Base      *int64 `json:"base,omitempty"`
	Age       *int64 `json:"age,omitempty"`
	Size      *int64 `json:"size,omitempty"`
	FairShare *int64 `json:"fair_share,omitempty"`
}

// Clone returns a deep copy: mutating the clone's weights never touches
// the original. The evolution loop applies each delta to a clone, so a
// rejected delta, and every spec it has handed out, stay as they were.
func (sp Spec) Clone() Spec {
	if sp.Weights != nil {
		w := *sp.Weights
		dup := func(p *int64) *int64 {
			if p == nil {
				return nil
			}
			v := *p
			return &v
		}
		w.Base, w.Age, w.Size, w.FairShare = dup(w.Base), dup(w.Age), dup(w.Size), dup(w.FairShare)
		sp.Weights = &w
	}
	return sp
}

// Config materialises the spec against a system: default config, then
// preset, then overrides, then validation.
func (sp *Spec) Config(sys *cluster.System, seed int64) (sched.Config, error) {
	cfg := sched.DefaultConfig(sys)
	cfg.Seed = seed
	if sp.Preset != "" {
		if err := sched.ApplyPreset(&cfg, sp.Preset); err != nil {
			return cfg, fmt.Errorf("spec %q: %w", sp.Name, err)
		}
	}
	if sp.Priority != "" {
		cfg.Priority = sp.Priority
	}
	if sp.Backfill != "" {
		cfg.Backfill = sp.Backfill
	}
	if sp.NodeSelect != "" {
		cfg.NodeSelect = sp.NodeSelect
	}
	if sp.BackfillDepth > 0 {
		cfg.BackfillDepth = sp.BackfillDepth
	}
	cfg.EnableNodeSharing = sp.NodeSharing
	if w := sp.Weights; w != nil {
		if w.Base != nil {
			cfg.Base = *w.Base
		}
		if w.Age != nil {
			cfg.AgeWeight = *w.Age
		}
		if w.Size != nil {
			cfg.SizeWeight = *w.Size
		}
		if w.FairShare != nil {
			cfg.FairShareWeight = *w.FairShare
		}
	}
	if err := cfg.Validate(); err != nil {
		return cfg, fmt.Errorf("spec %q: %w", sp.Name, err)
	}
	return cfg, nil
}

// Scorecard is the stable-schema comparison artifact.
type Scorecard struct {
	Schema   string        `json:"schema"`
	Trace    TraceInfo     `json:"trace"`
	Policies []PolicyScore `json:"policies"`
	// ElapsedMS is the tournament wall-clock: its unseen configurations
	// simulated at most GOMAXPROCS at a time. It is the one
	// non-deterministic field at this level (CI strips elapsed_ms before
	// diffing runs).
	ElapsedMS int64 `json:"elapsed_ms"`
}

// TraceInfo pins the workload the policies were compared on.
type TraceInfo struct {
	System   string `json:"system"`
	Requests int    `json:"requests"`
	Seed     int64  `json:"seed"`
}

// PolicyScore is one policy's outcome on the shared trace.
type PolicyScore struct {
	Name string `json:"name"`
	Spec Spec   `json:"spec"`

	Completed   int     `json:"completed"`
	Failed      int     `json:"failed"`
	Cancelled   int     `json:"cancelled"`
	Timeout     int     `json:"timeout"`
	Started     int     `json:"started"`
	Backfilled  int     `json:"backfilled"`
	Preemptions int     `json:"preemptions"`
	Utilization float64 `json:"utilization"`

	MeanWaitSec  float64 `json:"mean_wait_sec"`
	MaxWaitSec   float64 `json:"max_wait_sec"`
	BackfillFrac float64 `json:"backfill_frac"`
	// MeanSlowdown is the mean bounded slowdown (wait+run)/max(run, 10s)
	// across started jobs — the classic scheduling-quality metric that
	// punishes long waits on short jobs.
	MeanSlowdown float64 `json:"mean_slowdown"`

	// Classes breaks the same metrics out per tracegen job class
	// (Request.Class), sorted by class name.
	Classes []ClassScore `json:"classes"`

	// ElapsedMS is the wall-clock of the simulation that produced the row:
	// its own run on one worker, not time-sliced with the other arms,
	// since a tournament runs no more simulations at once than GOMAXPROCS.
	// A memoised row carries its simulation's time. Excluded from
	// determinism comparisons.
	ElapsedMS int64 `json:"elapsed_ms"`
}

// ClassScore is one job class under one policy.
type ClassScore struct {
	Class        string  `json:"class"`
	Jobs         int     `json:"jobs"`
	Started      int     `json:"started"`
	WaitP50Sec   float64 `json:"wait_p50_sec"`
	WaitP90Sec   float64 `json:"wait_p90_sec"`
	WaitMeanSec  float64 `json:"wait_mean_sec"`
	MeanSlowdown float64 `json:"mean_slowdown"`
	BackfillFrac float64 `json:"backfill_frac"`
}

// Input configures a one-off tournament.
type Input struct {
	Specs  []Spec
	Reqs   []tracegen.Request // shared read-only across policies
	System *cluster.System
	Seed   int64

	// Metrics, when non-nil, receives each policy's simulator counters
	// re-published under policy-labelled names (obs.Label), plus the
	// tournament's own instruments. Tracer, when non-nil, records one
	// span per simulated policy.
	Metrics *obs.Registry
	Tracer  *obs.Tracer
}

// Run races every spec over the shared trace on a field of its own and
// returns the scorecard.
func Run(in Input) (*Scorecard, error) {
	return NewField(in.Reqs, in.System, in.Seed, in.Metrics, in.Tracer).Run(in.Specs)
}

// Field is a tournament bound to one immutable trace: a system, a request
// slice and a seed. The simulator is deterministic in (config, requests,
// seed), so the field simulates each distinct materialised configuration
// once in its lifetime and answers every later arm that materialises to
// the same configuration — under any name, in the same Run call or a later
// one — from the row it kept. The memo is the field's alone: it needs no
// digest of the trace, because the field never sees another, and it dies
// with the field. Run calls on one Field must not overlap.
type Field struct {
	reqs    []tracegen.Request
	system  *cluster.System
	seed    int64
	metrics *obs.Registry
	tracer  *obs.Tracer

	// rows holds one scored row per simulated configuration, keyed by
	// sched.Config.Fingerprint. Name and Spec are blank in a kept row;
	// Run stamps them on the copy each arm gets.
	rows map[string]*PolicyScore
}

// NewField binds a field to its trace. The requests are shared read-only
// with every simulation the field runs — each run's jobs point into the
// slice — and must not change while the field lives.
// metrics and tracer may be nil; see Input.
func NewField(reqs []tracegen.Request, system *cluster.System, seed int64, metrics *obs.Registry, tracer *obs.Tracer) *Field {
	return &Field{
		reqs: reqs, system: system, seed: seed, metrics: metrics, tracer: tracer,
		rows: map[string]*PolicyScore{},
	}
}

// Run scores every spec and returns the scorecard, simulating the
// configurations the field has not seen on at most GOMAXPROCS goroutines.
// The policy order follows the spec order; all metric content is
// deterministic for a given (trace, specs), whatever the worker count. A
// row answered from the memo carries the elapsed_ms of the simulation that
// produced it; Scorecard.ElapsedMS is this call's wall.
func (f *Field) Run(specs []Spec) (*Scorecard, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("tournament: no specs")
	}
	if len(f.reqs) == 0 {
		return nil, fmt.Errorf("tournament: no requests")
	}
	// Materialise every spec once, up front: one bad config fails fast
	// instead of racing N−1 healthy policies first.
	cfgs := make([]sched.Config, len(specs))
	keys := make([]string, len(specs))
	seen := map[string]bool{}
	for i := range specs {
		name := specs[i].Name
		if name == "" {
			return nil, fmt.Errorf("tournament: spec %d needs a name", i)
		}
		if seen[name] {
			return nil, fmt.Errorf("tournament: duplicate spec name %q", name)
		}
		seen[name] = true
		cfg, err := specs[i].Config(f.system, f.seed)
		if err != nil {
			return nil, err
		}
		cfgs[i], keys[i] = cfg, cfg.Fingerprint()
	}

	t0 := time.Now()
	root := f.tracer.Start("tournament.run")
	root.SetAttrInt("policies", int64(len(specs)))
	root.SetAttrInt("requests", int64(len(f.reqs)))
	defer root.End()

	// The first arm to name an unseen configuration simulates it; arms
	// that repeat it, here or in a later call, share the row.
	var sim []int
	claimed := map[string]bool{}
	for i, key := range keys {
		if f.rows[key] == nil && !claimed[key] {
			claimed[key] = true
			sim = append(sim, i)
		}
	}
	root.SetAttrInt("simulated", int64(len(sim)))
	// At most GOMAXPROCS simulations run at once, each on a worker that
	// takes the next unseen arm in spec order, so no more runs' storage is
	// live than there are processors to fill it, and an arm's elapsed_ms
	// is its own simulation's time.
	rows := make([]*PolicyScore, len(sim))
	err := pool.Run(len(sim), runtime.GOMAXPROCS(0), func(_, n int) (err error) {
		i := sim[n]
		if rows[n], err = f.simulate(cfgs[i], specs[i].Name, root); err != nil {
			return fmt.Errorf("tournament: policy %q: %w", specs[i].Name, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for n, i := range sim {
		f.rows[keys[i]] = rows[n]
	}

	scores := make([]PolicyScore, len(specs))
	for i := range specs {
		ps := *f.rows[keys[i]]
		ps.Name = specs[i].Name
		ps.Spec = specs[i].Clone() // the caller may go on to evolve the spec
		ps.Classes = append([]ClassScore(nil), ps.Classes...)
		scores[i] = ps
	}

	f.metrics.Counter("schedbench_tournaments_total").Inc()
	f.metrics.Counter(obs.Label("schedbench_arms_total", "source", "simulated")).Add(int64(len(sim)))
	f.metrics.Counter(obs.Label("schedbench_arms_total", "source", "memoised")).Add(int64(len(specs) - len(sim)))
	return &Scorecard{
		Schema: Schema,
		Trace: TraceInfo{
			System:   f.system.Name,
			Requests: len(f.reqs),
			Seed:     f.seed,
		},
		Policies:  scores,
		ElapsedMS: time.Since(t0).Milliseconds(),
	}, nil
}

// simulate runs one configuration over the field's trace and scores it.
// policy is the arm that asked first; it labels the span and the
// republished simulator metrics, which are therefore counted once per
// simulation, never once per arm sharing the row.
func (f *Field) simulate(cfg sched.Config, policy string, parent *obs.Span) (*PolicyScore, error) {
	span := parent.Child("tournament.policy")
	span.SetAttr("policy", policy)
	defer span.End()

	// Each simulation gets a private registry; the shared one receives the
	// values after the run under policy-labelled names, so concurrent
	// policies never contend and labels stay unambiguous.
	if f.metrics != nil {
		cfg.Metrics = obs.NewRegistry()
	}
	sim, err := sched.New(cfg)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	res, err := sim.Run(f.reqs, sched.Options{})
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(t0)
	span.SetAttrInt("jobs", int64(res.Len()))
	span.SetAttrInt("completed", int64(res.Stats.JobsCompleted))

	if f.metrics != nil {
		republish(f.metrics, cfg.Metrics, policy)
	}

	ps := score(res)
	res.Release() // the row is all the field keeps of a run
	ps.ElapsedMS = elapsed.Milliseconds()
	return &ps, nil
}

// republish copies a policy's private counters and gauges into the
// shared registry under policy-labelled names. Snapshot flattens both to
// int64; the naming convention recovers the instrument kind: a base name
// ending in _total or _sum accumulates, anything else is a gauge.
func republish(dst, src *obs.Registry, policy string) {
	for name, v := range src.Snapshot() {
		val, ok := v.(int64)
		if !ok {
			continue
		}
		base, _, _ := strings.Cut(name, "{")
		labelled := obs.Label(name, "policy", policy)
		if strings.HasSuffix(base, "_total") || strings.HasSuffix(base, "_sum") {
			dst.Counter(labelled).Add(val)
		} else {
			dst.Gauge(labelled).Set(val)
		}
	}
}

// score reduces a simulation result to the scorecard row, Name and Spec
// left for the arm to fill. It folds the job outcomes — no record is built —
// and all float math is a deterministic function of them.
func score(res *sched.Result) PolicyScore {
	st := res.Stats
	ps := PolicyScore{
		Completed:   st.JobsCompleted,
		Failed:      st.JobsFailed,
		Cancelled:   st.JobsCancelled,
		Timeout:     st.JobsTimeout,
		Backfilled:  st.Backfilled,
		Preemptions: st.Preemptions,
		Utilization: st.Utilization(),
		MaxWaitSec:  st.MaxWait.Seconds(),
	}

	type agg struct {
		jobs, started, backfilled int
		waits                     []float64
		slowSum                   float64
	}
	classes := map[string]*agg{}
	// The whole field needs only the mean wait, so it keeps a running sum
	// in outcome order, the order mean would add the waits in.
	var total agg
	var waitSum float64
	for o := range res.Outcomes {
		class := o.Req.Class
		if class == "" {
			class = "unclassified"
		}
		a := classes[class]
		if a == nil {
			a = &agg{}
			classes[class] = a
		}
		a.jobs++
		total.jobs++
		if !o.Started {
			continue
		}
		wait := o.Start.Sub(o.Req.Submit)
		a.started++
		total.started++
		if o.Backfilled {
			a.backfilled++
			total.backfilled++
		}
		w := wait.Seconds()
		a.waits = append(a.waits, w)
		waitSum += w
		sd := boundedSlowdown(wait, o.End.Sub(o.Start))
		a.slowSum += sd
		total.slowSum += sd
	}

	ps.Started = total.started
	if total.started > 0 {
		ps.MeanWaitSec = waitSum / float64(total.started)
		ps.MeanSlowdown = total.slowSum / float64(total.started)
		ps.BackfillFrac = float64(total.backfilled) / float64(total.started)
	}

	names := make([]string, 0, len(classes))
	for name := range classes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a := classes[name]
		cs := ClassScore{Class: name, Jobs: a.jobs, Started: a.started}
		if a.started > 0 {
			sort.Float64s(a.waits)
			cs.WaitP50Sec = percentile(a.waits, 0.50)
			cs.WaitP90Sec = percentile(a.waits, 0.90)
			cs.WaitMeanSec = mean(a.waits)
			cs.MeanSlowdown = a.slowSum / float64(a.started)
			cs.BackfillFrac = float64(a.backfilled) / float64(a.started)
		}
		ps.Classes = append(ps.Classes, cs)
	}
	return ps
}

// boundedSlowdown is (wait + run) / max(run, 10s): the standard bounded
// slowdown with a 10-second floor so near-zero-runtime jobs don't blow
// the metric up.
func boundedSlowdown(wait, run time.Duration) float64 {
	const floor = 10 * time.Second
	denom := run
	if denom < floor {
		denom = floor
	}
	return (wait + run).Seconds() / denom.Seconds()
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// percentile reads the q-th percentile from an ascending-sorted slice
// using the nearest-rank method (deterministic, no interpolation).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// EncodeJSON renders the scorecard with stable key order and trailing
// newline — the bytes CI diffs between runs (minus elapsed_ms).
func (sc *Scorecard) EncodeJSON() ([]byte, error) {
	b, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DefaultSpecs is the standard tournament field: the production default,
// the named weight presets, the conservative-backfill and no-backfill
// contrasts, and the FIFO baseline.
func DefaultSpecs() []Spec {
	return []Spec{
		{Name: "default"},
		{Name: "capability", Preset: "capability"},
		{Name: "aging", Preset: "aging"},
		{Name: "fairshare", Preset: "fairshare"},
		{Name: "fifo", Preset: "fifo"},
		{Name: "conservative", Backfill: "conservative"},
		{Name: "no-backfill", Backfill: "none"},
	}
}
