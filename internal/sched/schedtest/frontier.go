// Package schedtest is the golden Frontier run for the tests of the
// packages that pin their bytes on it: the store, the columnar format and
// the serving plane. It is the workload internal/sched replays as
// TestGoldenFrontierMixed — chains, arrays, urgent preemption, an advance
// reservation, steps — 35,009 job and step rows of January 2024 that
// reach every column encoding and every formatter of the text emit plane.
// internal/sched's own tests keep their copy (they cannot import a
// package that imports sched); TestFrontierFixtureIsTheGoldenRun holds
// the two equal.
package schedtest

import (
	"testing"
	"time"

	"slurmsight/internal/cluster"
	"slurmsight/internal/sched"
	"slurmsight/internal/slurm"
	"slurmsight/internal/tracegen"
)

// FrontierRows is the number of job and step rows the run yields.
const FrontierRows = 35009

// start is the first instant of the workload.
var start = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

// FrontierTrace is the workload: six days of a small Frontier profile, a
// deterministic slice of it tagged at the advance reservation.
func FrontierTrace(tb testing.TB) []tracegen.Request {
	tb.Helper()
	p := tracegen.FrontierProfile()
	p.JobsPerDay, p.Users = 120, 60
	reqs, err := tracegen.Generate([]tracegen.Phase{{Profile: p, Start: start, End: start.AddDate(0, 0, 6)}}, 7)
	if err != nil {
		tb.Fatal(err)
	}
	for i := range reqs {
		if i%23 == 0 && reqs[i].Nodes <= 256 {
			reqs[i].Reservation = "beamline-a"
		}
	}
	return reqs
}

// FrontierConfig is the configuration the workload runs under.
func FrontierConfig() sched.Config {
	cfg := sched.DefaultConfig(cluster.Frontier())
	cfg.Seed = 7
	cfg.Reservations = []sched.Reservation{{
		Name: "beamline-a", Nodes: 256,
		Start: start.AddDate(0, 0, 2), End: start.AddDate(0, 0, 3),
	}}
	return cfg
}

// FrontierResult is the run, steps emitted.
func FrontierResult(tb testing.TB) *sched.Result {
	tb.Helper()
	sim, err := sched.New(FrontierConfig())
	if err != nil {
		tb.Fatal(err)
	}
	res, err := sim.Run(FrontierTrace(tb), sched.Options{EmitSteps: true})
	if err != nil {
		tb.Fatal(err)
	}
	if n := res.Len() + res.StepRows(); n != FrontierRows {
		tb.Fatalf("golden Frontier run has %d rows, want %d", n, FrontierRows)
	}
	return res
}

// FrontierRecords is the run's job rows followed by its step rows.
func FrontierRecords(tb testing.TB) []slurm.Record {
	tb.Helper()
	jobs, steps := FrontierResult(tb).Collect()
	return append(jobs, steps...)
}
