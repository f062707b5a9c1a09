package analyze

import (
	"testing"
	"time"

	"slurmsight/internal/slurm"
)

func classedJob(id int64, class string, nodes int64, wait, limit, elapsed time.Duration,
	st slurm.State, backfill bool) slurm.Record {
	r := mkJob(id, "u1", t0, wait, nodes, limit, elapsed, st, backfill)
	r.Comment = class
	return r
}

func TestPerClass(t *testing.T) {
	jobs := []slurm.Record{
		classedJob(1, "hero", 4000, time.Hour, 12*time.Hour, 10*time.Hour, slurm.StateCompleted, false),
		classedJob(2, "debug", 2, time.Minute, time.Hour, 5*time.Minute, slurm.StateCompleted, true),
		classedJob(3, "debug", 1, time.Minute, time.Hour, 10*time.Minute, slurm.StateFailed, true),
		classedJob(4, "debug", 1, 2*time.Minute, time.Hour, 20*time.Minute, slurm.StateCompleted, false),
	}
	// An untagged job and a step must be handled gracefully.
	plain := mkJob(5, "u2", t0, time.Minute, 1, time.Hour, time.Minute, slurm.StateCompleted, false)
	plain.Comment = ""
	step := slurm.Record{ID: slurm.NewJobID(1).WithStep(0), Submit: t0, Comment: "hero"}
	jobs = append(jobs, plain, step)

	classes := observeAll(NewClassCollector(), jobs).Result()
	if len(classes) != 3 {
		t.Fatalf("classes = %d, want 3 (hero, debug, untagged)", len(classes))
	}
	// Ordered by consumed node-hours: hero (40k) first.
	if classes[0].Class != "hero" {
		t.Errorf("first class = %s", classes[0].Class)
	}
	if classes[0].NodeHours != 40000 {
		t.Errorf("hero node-hours = %v", classes[0].NodeHours)
	}
	var debug *ClassSummary
	for i := range classes {
		if classes[i].Class == "debug" {
			debug = &classes[i]
		}
	}
	if debug == nil {
		t.Fatal("debug class missing")
	}
	if debug.Jobs != 3 {
		t.Errorf("debug jobs = %d", debug.Jobs)
	}
	if diff := debug.FailedShare - 1.0/3; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("debug failed share = %v", debug.FailedShare)
	}
	if diff := debug.BackfillShare - 2.0/3; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("debug backfill share = %v", debug.BackfillShare)
	}
	if debug.MedianUseRatio <= 0 || debug.MedianUseRatio >= 1 {
		t.Errorf("debug use ratio = %v", debug.MedianUseRatio)
	}
	found := false
	for _, c := range classes {
		if c.Class == "(untagged)" {
			found = true
		}
	}
	if !found {
		t.Error("untagged bucket missing")
	}
	if len(NewClassCollector().Result()) != 0 {
		t.Error("empty input should yield no classes")
	}
}

func TestPerClassNeverStarted(t *testing.T) {
	j := classedJob(1, "nrt", 2, -1, time.Hour, 0, slurm.StateCancelled, false)
	j.Start = time.Time{}
	classes := observeAll(NewClassCollector(), []slurm.Record{j}).Result()
	if len(classes) != 1 {
		t.Fatalf("classes = %d", len(classes))
	}
	c := classes[0]
	if c.Jobs != 1 || c.NodeHours != 0 || c.FailedShare != 1 {
		t.Errorf("never-started class summary = %+v", c)
	}
}
