package sched

import (
	"runtime"
	"testing"

	"slurmsight/internal/cluster"
)

// TestRunAllocationCeiling pins what one simulated request costs the
// allocator on the golden Frontier trace, records only (the tournament's
// shape). Measured 2,342 B and 15.0 mallocs per request; a math/rand source
// built per job, which buildResult once did, adds 4.9 KB and two mallocs to
// each and lands far outside both ceilings.
func TestRunAllocationCeiling(t *testing.T) {
	const (
		maxBytesPerJob  = 3200
		maxAllocsPerJob = 16.0
	)
	reqs := goldenFrontierTrace(t)
	cfg := DefaultConfig(cluster.Frontier())
	cfg.Seed = 7
	cfg.Reservations = goldenReservations()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := sim.Run(reqs, Options{}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	n := float64(len(reqs))
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
	allocs := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("%d requests: %.0f B and %.2f mallocs per request", len(reqs), bytes, allocs)
	if bytes > maxBytesPerJob {
		t.Errorf("Run allocated %.0f B per request, ceiling %d", bytes, maxBytesPerJob)
	}
	if !raceEnabled && allocs > maxAllocsPerJob {
		t.Errorf("Run made %.2f mallocs per request, ceiling %.1f", allocs, maxAllocsPerJob)
	}
}
