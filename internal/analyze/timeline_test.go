package analyze

import (
	"math"
	"testing"
	"time"
	"unsafe"

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

// TestTimelineZeroEndEdge pins the sweep over the two odd lifecycles: a
// job that started but has no End, and one that never started. The
// started job's end edge sits at the zero time, so it sorts before every
// real edge, releases its nodes before the sweep begins and lands in no
// bucket; the never-started job leaves the queue at its End. The points
// were recorded from the sweep over time.Time edges.
func TestTimelineZeroEndEdge(t *testing.T) {
	running := mkJob(1, "a", t0, time.Hour, 4, 3*time.Hour, 2*time.Hour, slurm.StateCompleted, false)
	running.End = time.Time{}
	cancelled := mkJob(2, "b", t0.Add(2*time.Hour), -1, 2, time.Hour, 0, slurm.StateCancelled, false)
	cancelled.End = t0.Add(5 * time.Hour)
	normal := mkJob(3, "c", t0.Add(30*time.Minute), 30*time.Minute, 3, 2*time.Hour, 90*time.Minute, slurm.StateCompleted, false)

	type pt struct {
		at                 time.Duration
		busy, queue        float64
		started, submitted int
	}
	want := []pt{
		{0, -4, 1.5, 0, 2},
		{time.Hour, 3, 0, 2, 0},
		{2 * time.Hour, 1.5, 1, 0, 1},
		{3 * time.Hour, 0, 1, 0, 0},
		{4 * time.Hour, 0, 1, 0, 0},
		{5 * time.Hour, 0, 0, 0, 0},
	}
	c := observeAll(NewTimelineCollector(time.Hour), []slurm.Record{running, cancelled, normal})
	var got []pt
	for _, p := range c.Result() {
		got = append(got, pt{p.At.Sub(t0), p.BusyNodes, p.QueueDepth, p.Started, p.Submitted})
	}
	if len(got) != len(want) {
		t.Fatalf("buckets = %#v, want %#v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if c.Result()[0].At != t0 {
		t.Errorf("first bucket at %v, want %v", c.Result()[0].At, t0)
	}
}

// TestTimelineFarTimestamps sweeps instants the parser accepts but Unix
// nanoseconds cannot hold (years 0000–9999 parse; int64 nanoseconds span
// 1678–2262). A span within time.Duration's ~292 years keeps every
// instant exact: the year-2290 End holds its nodes until 2290, and those
// points were recorded from the time.Time sweep at fe019f1. A wider span
// ends in the bucket holding lo+292y. That sweep overflowed there (index
// out of range), so those points are derived: a job running past the end
// is busy in every bucket, and a year-1 submission is queued in every
// bucket while all the 2024 edges fall past the end.
func TestTimelineFarTimestamps(t *testing.T) {
	if size := unsafe.Sizeof(tlEdge{}); size > 24 {
		t.Errorf("a timeline edge is %d bytes, want ≤ 24", size)
	}
	const year = 365 * 24 * time.Hour
	normal := mkJob(3, "c", t0.Add(30*time.Minute), 30*time.Minute, 3, 2*time.Hour, 90*time.Minute, slurm.StateCompleted, false)
	endingAt := func(end time.Time) slurm.Record {
		r := mkJob(1, "a", t0, time.Hour, 4, 3*time.Hour, 2*time.Hour, slurm.StateCompleted, false)
		r.End = end
		return r
	}
	early := time.Date(1, 1, 1, 0, 0, 1, 0, time.UTC)
	submitYear1 := mkJob(2, "b", early, 0, 2, time.Hour, time.Hour, slurm.StateCompleted, false)
	submitYear1.Start, submitYear1.End = t0, t0.Add(time.Hour)
	end9999 := endingAt(time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC))

	type pt struct {
		busy, queue        float64
		started, submitted int
	}
	// Bucket 0 of the 2024 jobs: 4 nodes from hour 1, 3 more for 1.5 h,
	// 1.5 queued job-hours.
	first2024 := pt{4.000057077625571, 0.00017123287671232877, 2, 2}
	for _, tc := range []struct {
		name             string
		recs             []slurm.Record
		lo               time.Time
		n                int
		first, mid, last pt // points 0, 1..n-2 and n-1
	}{
		{"end 2290", []slurm.Record{endingAt(time.Date(2290, 6, 1, 0, 0, 0, 0, time.UTC)), normal},
			t0, 267, first2024, pt{4, 0, 0, 0}, pt{2.0273972602739727, 0, 0, 0}},
		{"end 9999", []slurm.Record{end9999, normal},
			t0, 293, first2024, pt{4, 0, 0, 0}, pt{4, 0, 0, 0}},
		{"submit 0001", []slurm.Record{submitYear1, normal},
			early, 293, pt{0, 1, 0, 1}, pt{0, 1, 0, 0}, pt{0, 1, 0, 0}},
		{"both", []slurm.Record{end9999, submitYear1, normal},
			early, 293, pt{0, 1, 0, 1}, pt{0, 1, 0, 0}, pt{0, 1, 0, 0}},
	} {
		points := observeAll(NewTimelineCollector(year), tc.recs).Result()
		if len(points) != tc.n {
			t.Errorf("%s: %d buckets, want %d", tc.name, len(points), tc.n)
			continue
		}
		for i, p := range points {
			want := tc.mid
			switch i {
			case 0:
				want = tc.first
			case tc.n - 1:
				want = tc.last
			}
			if got := (pt{p.BusyNodes, p.QueueDepth, p.Started, p.Submitted}); got != want {
				t.Errorf("%s: bucket %d = %+v, want %+v", tc.name, i, got, want)
			}
			if at := tc.lo.Add(time.Duration(i) * year); !p.At.Equal(at) {
				t.Errorf("%s: bucket %d at %v, want %v", tc.name, i, p.At, at)
			}
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
