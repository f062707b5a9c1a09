package sched

import (
	"runtime"
	"testing"
)

// TestRunAllocationCeiling pins what one simulated request costs the
// allocator on the golden Frontier trace when nobody reads records (the
// tournament's shape): the job arena, the event queue and the pass buffers.
// Measured 651 B and 3.1 mallocs per request (the mallocs are the
// reservation pass's sort.Slice); the ceilings are that plus a quarter. A
// Record built per job, which Run once ended in, adds 1.7 KB and twelve
// mallocs to each and lands far outside both.
func TestRunAllocationCeiling(t *testing.T) {
	const (
		maxBytesPerJob  = 815
		maxAllocsPerJob = 3.9
	)
	reqs := goldenFrontierTrace(t)
	sim := goldenFrontierSim(t)
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
