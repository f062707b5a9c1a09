package sched

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"testing"
	"time"

	"slurmsight/internal/cluster"
	"slurmsight/internal/slurm"
	"slurmsight/internal/tracegen"
)

// The golden determinism tests pin the simulator's full observable output
// — every encoded job and step record, per-job step counts, and the
// complete RunStats — for fixed-seed workloads, proving the scheduler
// hot-path rework (indexed pending queue, heap-backed shadow computation,
// O(1) set maintenance, dirty-flag pass skipping) is behaviour-preserving
// bit for bit. The constants were generated from the pre-rework
// implementation with two tie-breaks made canonical first: the backfill
// shadow computation and preemption victim selection previously ordered
// equal-key jobs by unstable-sort internals over slice layout, and now
// order them by job sequence. Both the patched pre-rework code and the
// reworked code reproduce these digests exactly. Any intentional semantic
// change must update the constants and say why in the commit.
//
// The hashes cover linux/amd64 (the CI platform); the only float math
// involved (fair-share exp2, node-second accounting) is IEEE-exact and
// Go's math.Exp2 is portable code, so other 64-bit platforms are expected
// to agree.

// goldenDigest hashes the record stream — every encoded job row with its
// outcome's planned step count behind it, and every step row — and the
// full stats block.
func goldenDigest(t *testing.T, res *Result) (jobs, steps, stats uint64) {
	t.Helper()
	fields := slurm.SelectedNames()
	var planned []int
	for o := range res.Outcomes {
		planned = append(planned, o.Steps)
	}
	jh, sh := fnv.New64a(), fnv.New64a()
	n := 0
	for rec := range res.Records {
		line, err := slurm.EncodeRecord(rec, fields)
		if err != nil {
			t.Fatal(err)
		}
		if rec.IsStep() {
			io.WriteString(sh, line+"\n")
			continue
		}
		fmt.Fprintf(jh, "%s\nsteps=%d\n", line, planned[n])
		n++
	}
	// Every RunStats field, listed explicitly so a new field breaks the
	// build here and forces a golden refresh; floats are hashed by bit
	// pattern to rule out formatting rounding.
	st := res.Stats
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%x|%x|%d|%d|%d|%d",
		st.JobsCompleted, st.JobsFailed, st.JobsCancelled, st.JobsTimeout,
		st.JobsNodeFail, st.JobsOOM, st.Backfilled, st.NeverStarted,
		int64(st.TotalWait), int64(st.MaxWait),
		math.Float64bits(st.NodeSecondsBusy), math.Float64bits(st.NodeSecondsCap),
		st.Preemptions, int64(st.PreemptedLost), st.DependencyCancelled,
		st.ReservationStarts)
	return jh.Sum64(), sh.Sum64(), h.Sum64()
}

type goldenWant struct {
	jobs, steps, stats  uint64
	completed, cancel   int
	backfilled, preempt int
	totalWait           time.Duration
}

func checkGolden(t *testing.T, res *Result, want goldenWant) {
	t.Helper()
	jobs, steps, stats := goldenDigest(t, res)
	if jobs != want.jobs || steps != want.steps || stats != want.stats {
		t.Errorf("golden digests drifted:\n got jobs=%#x steps=%#x stats=%#x\nwant jobs=%#x steps=%#x stats=%#x\nstats: %+v",
			jobs, steps, stats, want.jobs, want.steps, want.stats, res.Stats)
	}
	// Human-readable anchors so a drift is debuggable without replaying
	// hashes.
	st := res.Stats
	if st.JobsCompleted != want.completed || st.JobsCancelled != want.cancel ||
		st.Backfilled != want.backfilled || st.Preemptions != want.preempt ||
		st.TotalWait != want.totalWait {
		t.Errorf("golden stats drifted: completed=%d cancelled=%d backfilled=%d preemptions=%d totalWait=%v\nfull: %+v",
			st.JobsCompleted, st.JobsCancelled, st.Backfilled, st.Preemptions, st.TotalWait, st)
	}
}

// goldenFrontierTrace is the workload TestGoldenFrontierMixed replays.
func goldenFrontierTrace(t *testing.T) []tracegen.Request {
	t.Helper()
	p := tracegen.FrontierProfile()
	p.JobsPerDay, p.Users = 120, 60
	reqs, err := tracegen.Generate([]tracegen.Phase{{
		Profile: p, Start: t0, End: t0.AddDate(0, 0, 6),
	}}, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Tag a deterministic slice of jobs at the reservation. Some fit the
	// window and dispatch inside it; the rest pend past the window close
	// and retarget the general pool (the evResEnd fallback path).
	for i := range reqs {
		if i%23 == 0 && reqs[i].Nodes <= 256 {
			reqs[i].Reservation = "beamline-a"
		}
	}
	return reqs
}

// goldenFrontierConfig is the configuration goldenFrontierTrace runs
// under, with the advance reservation the trace tags.
func goldenFrontierConfig() Config {
	cfg := DefaultConfig(cluster.Frontier())
	cfg.Seed = 7
	cfg.Reservations = []Reservation{{
		Name: "beamline-a", Nodes: 256,
		Start: t0.AddDate(0, 0, 2), End: t0.AddDate(0, 0, 3),
	}}
	return cfg
}

// goldenFrontierSim is a fresh simulator configured for goldenFrontierTrace.
func goldenFrontierSim(t *testing.T) *Simulator {
	t.Helper()
	sim, err := New(goldenFrontierConfig())
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// TestGoldenFrontierMixed replays a contended Frontier workload that
// exercises chains, arrays, urgent preemption, and an advance reservation
// window, with step records materialized.
func TestGoldenFrontierMixed(t *testing.T) {
	res, err := goldenFrontierSim(t).Run(goldenFrontierTrace(t), Options{EmitSteps: true})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, res, goldenWant{
		jobs:       0x95f9a9bc5ac99c65,
		steps:      0x73ba29fdc73c7778,
		stats:      0xc34bb4ea86fd0031,
		completed:  1474,
		cancel:     202,
		backfilled: 80,
		preempt:    1,
		totalWait:  765*time.Hour + 4*time.Minute + 59*time.Second + 820186889,
	})
}

// TestGoldenTinyPreemptSharing replays a randomized mixed workload on the
// 10-node preemption-enabled system with node sharing on: the regime where
// eviction/requeue interleavings and sub-node packing stress the pending
// and running set maintenance.
func TestGoldenTinyPreemptSharing(t *testing.T) {
	sys := preemptSystem()
	rng := rand.New(rand.NewSource(99))
	p := tinyProfile(rng, sys)
	p.Classes[0].SubNodeCores = tracegen.Clamped{D: tracegen.LogNormalMedian(3, 1.8), Lo: 1, Hi: 8}
	p.JobsPerDay = 80 // overload the 10-node system so evictions and requeues pile up
	reqs, err := tracegen.Generate([]tracegen.Phase{{
		Profile: p, Start: t0, End: t0.AddDate(0, 0, 4),
	}}, 12345)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(sys)
	cfg.Seed = 12345
	cfg.EnableNodeSharing = true
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(reqs, Options{EmitSteps: true})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, res, goldenWant{
		jobs:       0x2b542f119855341a,
		steps:      0x9c06d57b0491d9d4,
		stats:      0x585ffdaf8e679b22,
		completed:  268,
		cancel:     52,
		backfilled: 180,
		preempt:    15,
		totalWait:  902*time.Hour + 7*time.Minute + 55*time.Second + 407466574,
	})
}
