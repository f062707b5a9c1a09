package sched

import (
	"runtime"
	"testing"
	"unsafe"
)

// TestRunAllocationCeiling pins what one simulated request costs the
// allocator on the golden Frontier trace when nobody reads records (the
// tournament's shape): the job arena, the event queue and the pass buffers.
// Measured 266 B and 0.06 mallocs per request; the ceilings are that plus
// a quarter. At 634 B and 3.1 mallocs, before the job and the event shrank
// to int64 instants and the two sorts stopped allocating, a run lands far
// outside both, and so does a Record built per job (1.7 KB and twelve
// mallocs more).
func TestRunAllocationCeiling(t *testing.T) {
	const (
		maxBytesPerJob  = 333
		maxAllocsPerJob = 0.08
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
		t.Errorf("Run made %.2f mallocs per request, ceiling %.2f", allocs, maxAllocsPerJob)
	}
}

// TestJobAndEventLayout pins the two per-request structs, whose sizes are
// most of what a run allocates: a job is at most 160 bytes (352 while its
// instants were time.Time) and an event, about two per job, at most 40
// (64 before).
func TestJobAndEventLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the layout is pinned on 64-bit builds")
	}
	if n := unsafe.Sizeof(job{}); n > 160 {
		t.Errorf("job is %d bytes, ceiling 160", n)
	}
	if n := unsafe.Sizeof(event{}); n > 40 {
		t.Errorf("event is %d bytes, ceiling 40", n)
	}
	t.Logf("job %d B, event %d B", unsafe.Sizeof(job{}), unsafe.Sizeof(event{}))
}
