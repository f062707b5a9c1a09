package analyze

import (
	"math"
	"testing"
	"time"

	"slurmsight/internal/slurm"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestTimelineBasic(t *testing.T) {
	// One job: submitted at t0, waits 1 h, runs 2 h on 4 nodes.
	jobs := []slurm.Record{
		mkJob(1, "a", t0, time.Hour, 4, 3*time.Hour, 2*time.Hour, slurm.StateCompleted, false),
	}
	points := observeAll(NewTimelineCollector(time.Hour), jobs).Result()
	if len(points) != 4 { // hours 0..3 (end exclusive boundary in hour 3)
		t.Fatalf("buckets = %d, want 4 (%+v)", len(points), points)
	}
	// Hour 0: queued the whole hour, nothing running.
	if !almostEq(points[0].QueueDepth, 1, 1e-9) || !almostEq(points[0].BusyNodes, 0, 1e-9) {
		t.Errorf("hour 0 = %+v", points[0])
	}
	if points[0].Submitted != 1 {
		t.Errorf("hour 0 submissions = %d", points[0].Submitted)
	}
	// Hours 1 and 2: 4 nodes busy, queue empty.
	for h := 1; h <= 2; h++ {
		if !almostEq(points[h].BusyNodes, 4, 1e-9) || !almostEq(points[h].QueueDepth, 0, 1e-9) {
			t.Errorf("hour %d = %+v", h, points[h])
		}
	}
	if points[1].Started != 1 {
		t.Errorf("hour 1 starts = %d", points[1].Started)
	}
}

func TestTimelinePartialBuckets(t *testing.T) {
	// Job runs 30 min on 8 nodes inside an hour bucket → mean 4 nodes.
	jobs := []slurm.Record{
		mkJob(1, "a", t0, 0, 8, time.Hour, 30*time.Minute, slurm.StateCompleted, false),
	}
	points := observeAll(NewTimelineCollector(time.Hour), jobs).Result()
	if len(points) == 0 {
		t.Fatal("no buckets")
	}
	if !almostEq(points[0].BusyNodes, 4, 1e-9) {
		t.Errorf("partial bucket busy = %v, want 4", points[0].BusyNodes)
	}
}

func TestTimelineNeverStartedJob(t *testing.T) {
	// Cancelled while pending: contributes queue depth, never allocation.
	j := mkJob(1, "a", t0, -1, 4, time.Hour, 0, slurm.StateCancelled, false)
	j.Start = time.Time{}
	j.End = t0.Add(2 * time.Hour)
	points := observeAll(NewTimelineCollector(time.Hour), []slurm.Record{j}).Result()
	if len(points) < 2 {
		t.Fatalf("buckets = %d", len(points))
	}
	for h := 0; h < 2; h++ {
		if !almostEq(points[h].QueueDepth, 1, 1e-9) {
			t.Errorf("hour %d queue = %v", h, points[h].QueueDepth)
		}
		if points[h].BusyNodes != 0 {
			t.Errorf("hour %d busy = %v", h, points[h].BusyNodes)
		}
	}
}

func TestTimelineOverlappingJobs(t *testing.T) {
	jobs := []slurm.Record{
		mkJob(1, "a", t0, 0, 2, 4*time.Hour, 4*time.Hour, slurm.StateCompleted, false),
		mkJob(2, "b", t0, 0, 3, 2*time.Hour, 2*time.Hour, slurm.StateCompleted, false),
	}
	points := observeAll(NewTimelineCollector(time.Hour), jobs).Result()
	if !almostEq(points[0].BusyNodes, 5, 1e-9) {
		t.Errorf("hour 0 busy = %v, want 5", points[0].BusyNodes)
	}
	if !almostEq(points[3].BusyNodes, 2, 1e-9) {
		t.Errorf("hour 3 busy = %v, want 2", points[3].BusyNodes)
	}
}

func TestTimelineEmptyAndSteps(t *testing.T) {
	if observeAll(NewTimelineCollector(time.Hour), nil).Result() != nil {
		t.Error("empty input should give nil")
	}
	step := slurm.Record{ID: slurm.NewJobID(1).WithStep(0), Submit: t0}
	if observeAll(NewTimelineCollector(time.Hour), []slurm.Record{step}).Result() != nil {
		t.Error("steps alone should give nil")
	}
	// A zero bucket defaults rather than dividing by zero.
	jobs := []slurm.Record{
		mkJob(1, "a", t0, 0, 1, time.Hour, time.Hour, slurm.StateCompleted, false),
	}
	if pts := observeAll(NewTimelineCollector(0), jobs).Result(); len(pts) == 0 {
		t.Error("zero bucket width should default to an hour")
	}
}

func TestSummarizeTimeline(t *testing.T) {
	jobs := []slurm.Record{
		mkJob(1, "a", t0, 0, 10, 2*time.Hour, 2*time.Hour, slurm.StateCompleted, false),
		mkJob(2, "b", t0.Add(time.Hour), time.Hour, 6, 2*time.Hour, time.Hour, slurm.StateCompleted, false),
	}
	points := observeAll(NewTimelineCollector(time.Hour), jobs).Result()
	sum := SummarizeTimeline(points, 20)
	if sum.Buckets != len(points) {
		t.Errorf("Buckets = %d", sum.Buckets)
	}
	if sum.PeakBusyNodes < 10 || sum.PeakBusyNodes > 16 {
		t.Errorf("PeakBusyNodes = %v", sum.PeakBusyNodes)
	}
	if sum.MeanUtilization <= 0 || sum.MeanUtilization > 1 {
		t.Errorf("MeanUtilization = %v", sum.MeanUtilization)
	}
	if math.IsNaN(sum.MeanQueueDepth) {
		t.Error("NaN queue depth")
	}
	empty := SummarizeTimeline(nil, 20)
	if empty.Buckets != 0 || empty.MeanUtilization != 0 {
		t.Errorf("empty summary = %+v", empty)
	}
}

// TestTimelineConservation checks the integral property: summed busy
// node-hours across buckets equals the jobs' node-hours.
func TestTimelineConservation(t *testing.T) {
	jobs := []slurm.Record{
		mkJob(1, "a", t0, 30*time.Minute, 7, 5*time.Hour, 3*time.Hour+17*time.Minute, slurm.StateCompleted, false),
		mkJob(2, "b", t0.Add(45*time.Minute), 2*time.Hour, 3, 6*time.Hour, 90*time.Minute, slurm.StateFailed, false),
	}
	points := observeAll(NewTimelineCollector(10*time.Minute), jobs).Result()
	var got float64
	for _, p := range points {
		got += p.BusyNodes * (10.0 / 60.0) // node-hours per bucket
	}
	want := 7*(3+17.0/60) + 3*1.5
	if !almostEq(got, want, 0.02) {
		t.Errorf("integrated node-hours = %v, want %v", got, want)
	}
}
