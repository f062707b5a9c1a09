package predict

import (
	"testing"
	"time"

	"slurmsight/internal/slurm"
)

func TestPredictAbstainsWithoutHistory(t *testing.T) {
	p := NewPredictor()
	req := 4 * time.Hour
	if got := p.Predict("alice", "sim", req); got != req {
		t.Errorf("cold predictor proposed %v, want the user request", got)
	}
	// Below MinHistory it still abstains.
	for i := 0; i < 4; i++ {
		p.Observe("alice", "sim", time.Hour)
	}
	if got := p.Predict("alice", "sim", req); got != req {
		t.Errorf("with %d observations predictor proposed %v", 4, got)
	}
}

func TestPredictTightensOverestimates(t *testing.T) {
	p := NewPredictor()
	for i := 0; i < 20; i++ {
		p.Observe("alice", "sim", time.Hour)
	}
	got := p.Predict("alice", "sim", 8*time.Hour)
	if got >= 8*time.Hour {
		t.Fatalf("predictor failed to tighten: %v", got)
	}
	// Quantile 0.9 of a constant 1 h stream × 1.25 safety ≈ 75 min.
	if got < time.Hour || got > 2*time.Hour {
		t.Errorf("proposal = %v, want ≈ 75 min", got)
	}
}

func TestPredictNeverExceedsUserRequest(t *testing.T) {
	p := NewPredictor()
	for i := 0; i < 20; i++ {
		p.Observe("bob", "sim", 10*time.Hour)
	}
	req := 2 * time.Hour
	if got := p.Predict("bob", "sim", req); got != req {
		t.Errorf("proposal %v exceeds the user request", got)
	}
}

func TestPredictStreamsAreIndependent(t *testing.T) {
	p := NewPredictor()
	for i := 0; i < 10; i++ {
		p.Observe("alice", "short", 10*time.Minute)
		p.Observe("alice", "long", 10*time.Hour)
	}
	shortProp := p.Predict("alice", "short", 24*time.Hour)
	longProp := p.Predict("alice", "long", 24*time.Hour)
	if shortProp >= longProp {
		t.Errorf("streams leaked: short %v, long %v", shortProp, longProp)
	}
	if got := p.Predict("carol", "short", time.Hour); got != time.Hour {
		t.Error("unknown user should abstain")
	}
}

func TestWindowSlides(t *testing.T) {
	p := NewPredictor()
	p.Window = 8
	// Old regime: 10 h runs. New regime: 30 min runs.
	for i := 0; i < 8; i++ {
		p.Observe("alice", "sim", 10*time.Hour)
	}
	for i := 0; i < 8; i++ {
		p.Observe("alice", "sim", 30*time.Minute)
	}
	got := p.Predict("alice", "sim", 24*time.Hour)
	if got > 2*time.Hour {
		t.Errorf("window did not slide: proposal %v still reflects the old regime", got)
	}
}

func TestPredictFloor(t *testing.T) {
	p := NewPredictor()
	for i := 0; i < 10; i++ {
		p.Observe("alice", "sim", 10*time.Second)
	}
	if got := p.Predict("alice", "sim", time.Hour); got < 10*time.Minute {
		t.Errorf("proposal %v below the 10-minute floor", got)
	}
}

func mkJob(user string, submitOffset time.Duration, nodes int64, limit, elapsed time.Duration) slurm.Record {
	base := time.Date(2024, 5, 1, 0, 0, 0, 0, time.UTC)
	r := slurm.Record{
		ID:        slurm.NewJobID(int64(100000 + submitOffset/time.Minute)),
		User:      user,
		Comment:   "sim",
		Submit:    base.Add(submitOffset),
		NNodes:    nodes,
		Timelimit: limit,
		Elapsed:   elapsed,
		State:     slurm.StateCompleted,
	}
	r.Start = r.Submit
	r.End = r.Start.Add(elapsed)
	return r
}

func TestEvaluateReplay(t *testing.T) {
	var jobs []slurm.Record
	// 40 jobs from one user: always request 8 h, always run 1 h.
	for i := 0; i < 40; i++ {
		jobs = append(jobs, mkJob("alice", time.Duration(i)*time.Hour, 10, 8*time.Hour, time.Hour))
	}
	p := NewPredictor()
	ev, err := Evaluate(jobs, p)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Jobs != 40 {
		t.Errorf("Jobs = %d", ev.Jobs)
	}
	if ev.Covered < 30 {
		t.Errorf("Covered = %d, want most of the stream after warmup", ev.Covered)
	}
	if ev.TimeoutRisk != 0 {
		t.Errorf("TimeoutRisk = %v on a constant stream", ev.TimeoutRisk)
	}
	if ev.ReclaimedNodeHours <= 0 || ev.ReclaimableNodeHours <= 0 {
		t.Errorf("reclamation empty: %+v", ev)
	}
	share := ev.ReclaimedShare()
	if share < 0.5 || share > 1 {
		t.Errorf("ReclaimedShare = %v, want most of the bound on a constant stream", share)
	}
}

func TestEvaluateNoLeakage(t *testing.T) {
	// A single job must never be predicted from its own runtime.
	jobs := []slurm.Record{mkJob("alice", 0, 1, 8*time.Hour, time.Minute)}
	p := NewPredictor()
	ev, err := Evaluate(jobs, p)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Covered != 0 {
		t.Errorf("first job was covered: leakage")
	}
}

func TestEvaluateObservesRuntimesAtTheirEnd(t *testing.T) {
	// Five 10-hour jobs of one stream, a minute apart, then a sixth
	// submitted an hour later: none of the five has ended, so the sixth
	// has no history and must not be covered.
	var jobs []slurm.Record
	for i := 0; i < 5; i++ {
		jobs = append(jobs, mkJob("alice", time.Duration(i)*time.Minute, 1, 24*time.Hour, 10*time.Hour))
	}
	jobs = append(jobs, mkJob("alice", time.Hour, 1, 24*time.Hour, 10*time.Hour))
	ev, err := Evaluate(jobs, NewPredictor())
	if err != nil {
		t.Fatal(err)
	}
	if ev.Covered != 0 {
		t.Errorf("Covered = %d, want 0: a job was predicted from runtimes still running", ev.Covered)
	}
	// Once the five have ended, a seventh has their history.
	jobs = append(jobs, mkJob("alice", 11*time.Hour, 1, 24*time.Hour, 10*time.Hour))
	if ev, _ = Evaluate(jobs, NewPredictor()); ev.Covered != 1 {
		t.Errorf("Covered = %d, want 1 once five runtimes have ended", ev.Covered)
	}
}

func TestEvaluateSkipsStepsAndPending(t *testing.T) {
	j := mkJob("alice", 0, 1, time.Hour, time.Minute)
	step := j
	step.ID = step.ID.WithStep(0)
	pending := mkJob("bob", time.Hour, 1, time.Hour, 0)
	pending.Start = time.Time{}
	ev, err := Evaluate([]slurm.Record{j, step, pending}, NewPredictor())
	if err != nil {
		t.Fatal(err)
	}
	if ev.Jobs != 1 {
		t.Errorf("Jobs = %d, want 1", ev.Jobs)
	}
	if _, err := Evaluate(nil, nil); err == nil {
		t.Error("nil predictor: want error")
	}
}

func TestEvaluateTimeoutRisk(t *testing.T) {
	var jobs []slurm.Record
	// Runtimes oscillate 1 h / 6 h: aggressive quantiles would undershoot.
	for i := 0; i < 40; i++ {
		d := time.Hour
		if i%2 == 1 {
			d = 6 * time.Hour
		}
		jobs = append(jobs, mkJob("alice", time.Duration(i)*time.Hour, 1, 12*time.Hour, d))
	}
	p := NewPredictor()
	p.Quantile = 0.5 // median of a bimodal stream undershoots the slow half
	ev, err := Evaluate(jobs, p)
	if err != nil {
		t.Fatal(err)
	}
	if ev.TimeoutRisk <= 0 {
		t.Errorf("aggressive quantile should show timeout risk: %+v", ev)
	}
	// The default conservative setting is safer on the same stream.
	safe, err := Evaluate(jobs, NewPredictor())
	if err != nil {
		t.Fatal(err)
	}
	if safe.TimeoutRisk > ev.TimeoutRisk {
		t.Errorf("default setting riskier than aggressive: %v > %v", safe.TimeoutRisk, ev.TimeoutRisk)
	}
}

func TestApplyToRequests(t *testing.T) {
	type req struct {
		user, class string
		limit, run  time.Duration
	}
	reqs := make([]req, 30)
	for i := range reqs {
		reqs[i] = req{"alice", "sim", 8 * time.Hour, time.Hour}
	}
	p := NewPredictor()
	changed := ApplyToRequests(len(reqs), p,
		func(i int) (string, string, time.Duration, time.Duration) {
			return reqs[i].user, reqs[i].class, reqs[i].limit, reqs[i].run
		},
		func(i int, limit time.Duration) { reqs[i].limit = limit })
	if changed == 0 {
		t.Fatal("nothing rewritten")
	}
	if reqs[0].limit != 8*time.Hour {
		t.Error("first request rewritten without history")
	}
	if reqs[len(reqs)-1].limit >= 8*time.Hour {
		t.Error("late requests not tightened")
	}
}
