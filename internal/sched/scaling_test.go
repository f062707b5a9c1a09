package sched

import (
	"fmt"
	"testing"
	"time"

	"slurmsight/internal/cluster"
	"slurmsight/internal/obs"
	"slurmsight/internal/tracegen"
)

// contendedTrace is the Frontier profile at constant submission pressure
// (~93% utilization, multi-hour queues) over days days: the regime where
// per-event cost matters. The profile expands chains and arrays to ~2.7
// requests per nominal job, so a day holds ~1,600 requests.
func contendedTrace(b *testing.B, days int) []tracegen.Request {
	b.Helper()
	p := tracegen.FrontierProfile()
	p.JobsPerDay, p.Users = 600, 400
	start := time.Date(2024, 2, 1, 0, 0, 0, 0, time.UTC)
	reqs, err := tracegen.Generate([]tracegen.Phase{{Profile: p, Start: start, End: start.AddDate(0, 0, days)}}, 11)
	if err != nil {
		b.Fatal(err)
	}
	return reqs
}

func replay(b *testing.B, reqs []tracegen.Request, reg *obs.Registry) {
	b.Helper()
	b.ReportMetric(float64(len(reqs)), "requests")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(cluster.Frontier())
		cfg.Metrics = reg
		sim, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(reqs, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulerScaling sweeps trace sizes and measures the simulator
// core alone (no steps, no store), with the window scaled to the trace
// size: larger traces mean proportionally longer replays over a standing
// queue. EXPERIMENTS.md "Scheduler hot path" records it.
func BenchmarkSchedulerScaling(b *testing.B) {
	for _, n := range []int{10_000, 50_000, 200_000} {
		b.Run(fmt.Sprintf("reqs=%d", n), func(b *testing.B) {
			replay(b, contendedTrace(b, n/1600), nil)
		})
	}
}

// BenchmarkSchedulerMetrics replays a month with no registry (the nil
// path every instrumented call site takes by default) and with one
// attached: the per-event counter increments are the difference.
func BenchmarkSchedulerMetrics(b *testing.B) {
	reqs := contendedTrace(b, 31)
	b.Run("off", func(b *testing.B) { replay(b, reqs, nil) })
	b.Run("on", func(b *testing.B) { replay(b, reqs, obs.NewRegistry()) })
}
