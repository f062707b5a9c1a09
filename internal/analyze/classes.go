package analyze

import "slurmsight/internal/stats"

// ClassSummary aggregates one workload class (the simulator records the
// class in the Comment field; real sites commonly tag jobs the same way).
type ClassSummary struct {
	Class          string
	Jobs           int
	NodeHours      float64 // consumed capacity
	MedianWaitS    float64
	MedianNodes    float64
	FailedShare    float64 // failed/cancelled/node-fail/OOM share
	MedianUseRatio float64 // actual/requested walltime
	BackfillShare  float64
}

// summary condenses one class accumulator.
func (a *classAcc) summary(class string) ClassSummary {
	s := ClassSummary{
		Class:     class,
		Jobs:      a.jobs,
		NodeHours: a.nodeHours,
	}
	s.MedianWaitS, _ = stats.Quantile(a.waits, 0.5)
	s.MedianNodes, _ = stats.Quantile(a.nodes, 0.5)
	s.MedianUseRatio, _ = stats.Quantile(a.ratios, 0.5)
	if a.jobs > 0 {
		s.FailedShare = float64(a.bad) / float64(a.jobs)
	}
	if a.started > 0 {
		s.BackfillShare = float64(a.backfill) / float64(a.started)
	}
	return s
}
