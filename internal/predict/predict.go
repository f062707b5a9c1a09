// Package predict implements the paper's first future-work item (§6):
// AI-predicted walltime estimation embedded into job submission. The
// predictor keeps a sliding window of each (user, class) stream's actual
// runtimes and proposes a request at a configurable quantile with a safety
// margin; Evaluate replays a historical trace to quantify how much of the
// over-estimated walltime a deployment would reclaim and at what timeout
// risk — the numbers behind "dynamic rescheduling and time reclamation".
package predict

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"slurmsight/internal/slurm"
)

// Predictor proposes walltime requests from per-stream history.
type Predictor struct {
	// Window is how many recent runtimes each stream keeps (default 32).
	Window int
	// Quantile of the window used as the base estimate (default 0.9).
	Quantile float64
	// Safety multiplies the base estimate (default 1.25).
	Safety float64
	// MinHistory is the observation count below which the predictor
	// abstains and defers to the user's request (default 5).
	MinHistory int

	streams map[string][]float64 // seconds, ring-buffered
}

// NewPredictor returns a predictor with production defaults.
func NewPredictor() *Predictor {
	return &Predictor{Window: 32, Quantile: 0.9, Safety: 1.25, MinHistory: 5}
}

func (p *Predictor) key(user, class string) string { return user + "\x00" + class }

// Observe folds one finished job's actual runtime into the stream.
func (p *Predictor) Observe(user, class string, actual time.Duration) {
	if p.streams == nil {
		p.streams = map[string][]float64{}
	}
	k := p.key(user, class)
	w := p.Window
	if w <= 0 {
		w = 32
	}
	s := append(p.streams[k], actual.Seconds())
	if len(s) > w {
		s = s[len(s)-w:]
	}
	p.streams[k] = s
}

// Predict proposes a walltime request for the stream's next job. With
// insufficient history it returns the user's own request unchanged
// (abstaining is safe: no new timeout risk is introduced). The proposal
// never exceeds the user's request — the goal is reclamation.
func (p *Predictor) Predict(user, class string, userRequest time.Duration) time.Duration {
	minH := p.MinHistory
	if minH <= 0 {
		minH = 5
	}
	s := p.streams[p.key(user, class)]
	if len(s) < minH {
		return userRequest
	}
	sorted := append([]float64(nil), s...)
	sort.Float64s(sorted)
	q := p.Quantile
	if q <= 0 || q > 1 {
		q = 0.9
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	base := sorted[lo]
	if lo+1 < len(sorted) {
		frac := pos - float64(lo)
		base = base*(1-frac) + sorted[lo+1]*frac
	}
	safety := p.Safety
	if safety <= 1 {
		safety = 1.25
	}
	proposal := time.Duration(base*safety) * time.Second
	proposal = proposal.Round(time.Minute)
	if proposal < 10*time.Minute {
		proposal = 10 * time.Minute
	}
	if proposal > userRequest {
		return userRequest
	}
	return proposal
}

// Evaluation quantifies a replay of the predictor over a trace.
type Evaluation struct {
	Jobs        int     // started jobs replayed
	Covered     int     // jobs where the predictor proposed (had history)
	Undershoots int     // proposals below the job's actual runtime
	TimeoutRisk float64 // Undershoots / Covered
	// ReclaimedNodeHours is Σ nodes·(userRequest − proposal) over covered
	// jobs — capacity handed back to the scheduler.
	ReclaimedNodeHours float64
	// ReclaimableNodeHours is the perfect-predictor bound for the same
	// jobs (Σ nodes·(userRequest − actual)).
	ReclaimableNodeHours float64
}

// ReclaimedShare is reclaimed capacity over the perfect-predictor bound.
func (e Evaluation) ReclaimedShare() float64 {
	if e.ReclaimableNodeHours <= 0 {
		return 0
	}
	return e.ReclaimedNodeHours / e.ReclaimableNodeHours
}

// Evaluate replays job records in time order: submits and ends merge
// into one stream, so each job is predicted from the runtimes of jobs
// that had ended by its submit, never from its own or from one still
// running (no leakage). An end at the instant of a submit counts as
// before it. The job's class is taken from the Comment field, where the
// simulator records it.
func Evaluate(jobs []slurm.Record, p *Predictor) (Evaluation, error) {
	if p == nil {
		return Evaluation{}, fmt.Errorf("predict: nil predictor")
	}
	ordered := make([]*slurm.Record, 0, len(jobs))
	for i := range jobs {
		if jobs[i].IsStep() || jobs[i].Start.IsZero() {
			continue
		}
		ordered = append(ordered, &jobs[i])
	}
	sort.SliceStable(ordered, func(i, j int) bool {
		return ordered[i].Submit.Before(ordered[j].Submit)
	})
	// A job still running when the trace was cut has no End and never
	// informs a prediction.
	ended := slices.DeleteFunc(slices.Clone(ordered), func(j *slurm.Record) bool { return j.End.IsZero() })
	sort.SliceStable(ended, func(i, j int) bool {
		return ended[i].End.Before(ended[j].End)
	})
	var ev Evaluation
	for _, j := range ordered {
		for len(ended) > 0 && !ended[0].End.After(j.Submit) {
			e := ended[0]
			p.Observe(e.User, e.Comment, e.Elapsed)
			ended = ended[1:]
		}
		ev.Jobs++
		proposal := p.Predict(j.User, j.Comment, j.Timelimit)
		if proposal != j.Timelimit {
			ev.Covered++
			if proposal < j.Elapsed {
				ev.Undershoots++
			}
			ev.ReclaimedNodeHours += float64(j.NNodes) * (j.Timelimit - proposal).Hours()
		}
		if slack := j.Timelimit - j.Elapsed; slack > 0 {
			ev.ReclaimableNodeHours += float64(j.NNodes) * slack.Hours()
		}
	}
	if ev.Covered > 0 {
		ev.TimeoutRisk = float64(ev.Undershoots) / float64(ev.Covered)
	}
	return ev, nil
}

// ApplyToRequests rewrites a request stream in place with predicted
// walltimes, replaying history in stream order — the what-if input for
// re-simulating a schedule with reclaimed time. Each element exposes its
// fields through the accessor callbacks so predict stays decoupled from
// the request type. It returns how many requests were tightened.
//
// Unlike Evaluate, it is not causal: it observes each request's
// TrueRuntime at that request's submit, before the job could have run,
// so a later prediction may use the runtime of a job still pending or
// running. That cannot be fixed here. A request stream has no end times
// until it is scheduled, and tightened limits change the schedule, so
// only the simulator, feeding completions back as they happen, can make
// the what-if causal.
func ApplyToRequests(n int, p *Predictor,
	get func(i int) (user, class string, limit, trueRuntime time.Duration),
	set func(i int, limit time.Duration)) int {
	changed := 0
	for i := 0; i < n; i++ {
		user, class, limit, trueRun := get(i)
		proposal := p.Predict(user, class, limit)
		if proposal != limit {
			set(i, proposal)
			changed++
		}
		p.Observe(user, class, trueRun)
	}
	return changed
}
