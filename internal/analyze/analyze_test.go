package analyze

import (
	"testing"
	"time"

	"slurmsight/internal/cluster"
	"slurmsight/internal/sched"
	"slurmsight/internal/slurm"
	"slurmsight/internal/tracegen"
)

var t0 = time.Date(2024, 2, 1, 0, 0, 0, 0, time.UTC)

func mkJob(id int64, user string, submit time.Time, waited time.Duration,
	nodes int64, limit, elapsed time.Duration, st slurm.State, backfill bool) slurm.Record {
	r := slurm.Record{
		ID: slurm.NewJobID(id), User: user, Submit: submit,
		NNodes: nodes, Timelimit: limit, State: st,
	}
	if st != slurm.StatePending && waited >= 0 {
		r.Start = submit.Add(waited)
		r.End = r.Start.Add(elapsed)
		r.Elapsed = elapsed
		if backfill {
			r.Flags = []string{slurm.FlagBackfill}
		} else {
			r.Flags = []string{slurm.FlagMain}
		}
	}
	return r
}

// observeAll feeds every record to c and returns it: the one-shot form
// the unit tests drive a collector through.
func observeAll[C interface{ Observe(*slurm.Record) }](c C, recs []slurm.Record) C {
	for i := range recs {
		c.Observe(&recs[i])
	}
	return c
}

func fixedJobs() []slurm.Record {
	return []slurm.Record{
		mkJob(1, "alice", t0, time.Hour, 128, 4*time.Hour, 2*time.Hour, slurm.StateCompleted, false),
		mkJob(2, "alice", t0.Add(time.Hour), 30*time.Minute, 4, time.Hour, 10*time.Minute, slurm.StateCompleted, true),
		mkJob(3, "bob", t0.Add(2*time.Hour), 2*time.Hour, 1000, 12*time.Hour, 11*time.Hour, slurm.StateCompleted, false),
		mkJob(4, "bob", t0.Add(3*time.Hour), time.Minute, 2, time.Hour, 5*time.Minute, slurm.StateFailed, true),
		mkJob(5, "carol", t0.Add(4*time.Hour), 40*time.Hour, 1, 30*time.Minute, 30*time.Minute, slurm.StateTimeout, false),
	}
}

func TestJobStepVolume(t *testing.T) {
	recs := fixedJobs()
	// Two steps for job 1, one for job 2.
	recs = append(recs,
		slurm.Record{ID: slurm.NewJobID(1).WithBatch(), Submit: t0},
		slurm.Record{ID: slurm.NewJobID(1).WithStep(0), Submit: t0},
		slurm.Record{ID: slurm.NewJobID(2).WithStep(0), Submit: t0.Add(time.Hour)},
	)
	// And one job in 2023.
	recs = append(recs, mkJob(6, "dave", t0.AddDate(-1, 0, 0), time.Minute, 1, time.Hour, time.Minute, slurm.StateCompleted, false))
	vols := observeAll(NewVolumeCollector(), recs).Result()
	if len(vols) != 2 {
		t.Fatalf("years = %d, want 2", len(vols))
	}
	if vols[0].Year != 2023 || vols[0].Jobs != 1 || vols[0].Steps != 0 {
		t.Errorf("2023 = %+v", vols[0])
	}
	if vols[1].Year != 2024 || vols[1].Jobs != 5 || vols[1].Steps != 3 {
		t.Errorf("2024 = %+v", vols[1])
	}
	if r := StepJobRatio(vols); r != 0.5 {
		t.Errorf("StepJobRatio = %v, want 0.5", r)
	}
	if StepJobRatio(nil) != 0 {
		t.Error("empty ratio should be 0")
	}
}

// TestJobStepVolumeCounted: a job's step rows count under its year, as
// many as the job streams.
func TestJobStepVolumeCounted(t *testing.T) {
	var recs []slurm.Record
	for i, j := range fixedJobs() {
		recs = append(recs, j)
		for k := 0; k < 3+i; k++ {
			recs = append(recs, slurm.Record{ID: j.ID.WithStep(int64(k)), Submit: j.Submit})
		}
	}
	vols := observeAll(NewVolumeCollector(), recs).Result()
	if len(vols) != 1 || vols[0].Jobs != 5 || vols[0].Steps != 25 {
		t.Errorf("vols = %+v", vols)
	}
}

func TestNodesVsElapsed(t *testing.T) {
	jobs := fixedJobs()
	// Add a never-started job and a step; both must be skipped.
	jobs = append(jobs,
		mkJob(9, "eve", t0, -1, 4, time.Hour, 0, slurm.StatePending, false),
		slurm.Record{ID: slurm.NewJobID(1).WithStep(0), Submit: t0, Elapsed: time.Hour},
	)
	pts := observeAll(NewScaleCollector(), jobs).Result()
	if len(pts) != 5 {
		t.Fatalf("points = %d, want 5", len(pts))
	}
	for _, p := range pts {
		if p.Nodes <= 0 || p.ElapsedSec <= 0 {
			t.Errorf("bad point %+v", p)
		}
	}
}

func TestWaitTimes(t *testing.T) {
	jobs := fixedJobs()
	never := mkJob(7, "eve", t0, -1, 1, time.Hour, 0, slurm.StateCancelled, false)
	never.Start = time.Time{}
	jobs = append(jobs, never)
	pts := observeAll(NewWaitCollector(), jobs).Result()
	if len(pts) != 5 {
		t.Fatalf("points = %d, want 5 (never-started skipped)", len(pts))
	}
	sum := SummarizeWaits(pts)
	if sum.PerState[slurm.StateCompleted].N != 3 {
		t.Errorf("completed waits = %d", sum.PerState[slurm.StateCompleted].N)
	}
	// carol waited 40 h = 144,000 s > 100 ks.
	if sum.LongWaits != 0.2 {
		t.Errorf("LongWaits = %v, want 0.2", sum.LongWaits)
	}
	if sum.P50 <= 0 || sum.P90 < sum.P50 || sum.P99 < sum.P90 {
		t.Errorf("quantiles not ordered: %+v", sum)
	}
}

func TestStatesPerUser(t *testing.T) {
	us := observeAll(NewUserStatesCollector(), fixedJobs()).Result(0)
	if len(us) != 3 {
		t.Fatalf("users = %d", len(us))
	}
	if us[0].Total < us[1].Total || us[1].Total < us[2].Total {
		t.Error("not sorted by volume")
	}
	var bob *UserStates
	for i := range us {
		if us[i].User == "bob" {
			bob = &us[i]
		}
	}
	if bob == nil || bob.Counts[slurm.StateFailed] != 1 || bob.Total != 2 {
		t.Errorf("bob = %+v", bob)
	}
	if got := bob.FailedShare(); got != 0.5 {
		t.Errorf("bob FailedShare = %v", got)
	}
	top := observeAll(NewUserStatesCollector(), fixedJobs()).Result(2)
	if len(top) != 2 {
		t.Errorf("topN not applied: %d", len(top))
	}
	if (&UserStates{}).FailedShare() != 0 {
		t.Error("empty user share should be 0")
	}
}

func TestRequestedVsActualAndSummary(t *testing.T) {
	pts := observeAll(NewBackfillCollector(), fixedJobs()).Result()
	if len(pts) != 5 {
		t.Fatalf("points = %d", len(pts))
	}
	sum := SummarizeBackfill(pts)
	if sum.Jobs != 5 {
		t.Errorf("Jobs = %d", sum.Jobs)
	}
	if sum.BackfilledShare != 0.4 {
		t.Errorf("BackfilledShare = %v, want 0.4", sum.BackfilledShare)
	}
	// Jobs 1 (0.5), 2 (0.167), 4 (0.083) use < 75% of request.
	if sum.OverestimateShare != 0.6 {
		t.Errorf("OverestimateShare = %v, want 0.6", sum.OverestimateShare)
	}
	if sum.MedianActualBackfilled >= sum.MedianActualRegular {
		t.Errorf("backfilled jobs should skew short: %v vs %v",
			sum.MedianActualBackfilled, sum.MedianActualRegular)
	}
	if SummarizeBackfill(nil).Jobs != 0 {
		t.Error("empty summary should be zero")
	}
}

func TestReclaimableNodeHours(t *testing.T) {
	got := observeAll(NewReclaimableCollector(), fixedJobs()).Result()
	// job1: 128×2h = 256; job2: 4×50min; job3: 1000×1h = 1000;
	// job4: 2×55min; job5: slack 0.
	want := 128*2.0 + 4*(50.0/60) + 1000*1.0 + 2*(55.0/60)
	if diff := got - want; diff > 0.01 || diff < -0.01 {
		t.Errorf("reclaimable node-hours = %v, want %v", got, want)
	}
}

func TestSummarizeUsers(t *testing.T) {
	us := observeAll(NewUserStatesCollector(), fixedJobs()).Result(0)
	sum := SummarizeUsers(us)
	if sum.Users != 3 {
		t.Errorf("Users = %d", sum.Users)
	}
	if sum.TopDecileFailures <= 0 || sum.TopDecileFailures > 1 {
		t.Errorf("TopDecileFailures = %v", sum.TopDecileFailures)
	}
	if SummarizeUsers(nil).Users != 0 {
		t.Error("empty summary should be zero")
	}
}

func TestSummarizeScale(t *testing.T) {
	sum := SummarizeScale(observeAll(NewScaleCollector(), fixedJobs()).Result())
	if sum.Jobs != 5 {
		t.Errorf("Jobs = %d", sum.Jobs)
	}
	if sum.SmallShortShare != 0.6 { // jobs 2, 4, and 5
		t.Errorf("SmallShortShare = %v", sum.SmallShortShare)
	}
	if sum.LargeLongShare != 0.2 { // job 3
		t.Errorf("LargeLongShare = %v", sum.LargeLongShare)
	}
	if SummarizeScale(nil).Jobs != 0 {
		t.Error("empty summary should be zero")
	}
}

// TestFrontierAndesComparisonShape runs both simulated systems end to end
// and asserts the portability contrasts the paper reports in §4.3.
func TestFrontierAndesComparisonShape(t *testing.T) {
	gen := func(p tracegen.Profile, sys *cluster.System, seed int64) *Bundle {
		p.JobsPerDay, p.Users = 120, 60
		reqs, err := tracegen.Generate([]tracegen.Phase{{
			Profile: p, Start: t0, End: t0.AddDate(0, 0, 21),
		}}, seed)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := sched.New(sched.DefaultConfig(sys))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(reqs, sched.Options{})
		if err != nil {
			t.Fatal(err)
		}
		b := NewBundle(0)
		for r := range res.Records {
			b.Observe(r)
		}
		return b
	}
	frontier := gen(tracegen.FrontierProfile(), cluster.Frontier(), 31)
	andes := gen(tracegen.AndesProfile(), cluster.Andes(), 32)
	fScale, aScale := SummarizeScale(frontier.Scale.Result()), SummarizeScale(andes.Scale.Result())
	fUsers, aUsers := SummarizeUsers(frontier.Users.Result(0)), SummarizeUsers(andes.Users.Result(0))
	fBackfill, aBackfill := SummarizeBackfill(frontier.Backfill.Result()), SummarizeBackfill(andes.Backfill.Result())

	// Figure 7 vs 3: Andes concentrates small, short jobs.
	if aScale.MedianNodes > fScale.MedianNodes {
		t.Errorf("Andes median nodes %.1f > Frontier %.1f", aScale.MedianNodes, fScale.MedianNodes)
	}
	if aScale.SmallShortShare <= fScale.SmallShortShare {
		t.Errorf("Andes small-short share %.2f ≤ Frontier %.2f",
			aScale.SmallShortShare, fScale.SmallShortShare)
	}
	if fScale.LargeLongShare <= aScale.LargeLongShare {
		t.Errorf("Frontier large-long share %.3f ≤ Andes %.3f",
			fScale.LargeLongShare, aScale.LargeLongShare)
	}
	// Figure 8 vs 5: Andes fails less, more uniformly.
	if aUsers.MeanFailedShare >= fUsers.MeanFailedShare {
		t.Errorf("Andes mean failed share %.3f ≥ Frontier %.3f",
			aUsers.MeanFailedShare, fUsers.MeanFailedShare)
	}
	if aUsers.StdFailedShare >= fUsers.StdFailedShare {
		t.Errorf("Andes failure variance %.3f ≥ Frontier %.3f",
			aUsers.StdFailedShare, fUsers.StdFailedShare)
	}
	// Figure 9 vs 6: over-estimation on both; tighter on Andes.
	if fBackfill.OverestimateShare < 0.3 || aBackfill.OverestimateShare < 0.3 {
		t.Errorf("over-estimation should be systematic on both: %.2f / %.2f",
			fBackfill.OverestimateShare, aBackfill.OverestimateShare)
	}
	if aBackfill.MedianUseRatio <= fBackfill.MedianUseRatio {
		t.Errorf("Andes use ratio %.2f ≤ Frontier %.2f; want tighter estimates on Andes",
			aBackfill.MedianUseRatio, fBackfill.MedianUseRatio)
	}
}
