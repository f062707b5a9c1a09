package analyze

import (
	"math"
	"sort"

	"slurmsight/internal/slurm"
	"slurmsight/internal/stats"
)

// WaitSummary quantifies the Figure 4 phenomena: per-state wait
// distributions and the long-tail mass.
type WaitSummary struct {
	PerState  map[slurm.State]stats.Summary
	P50, P90  float64 // seconds, across all states
	P99       float64
	LongWaits float64 // fraction of waits above 100,000 s (the paper's threshold)
}

// SummarizeWaits computes the Figure 4 summary.
func SummarizeWaits(points []WaitPoint) WaitSummary {
	per := map[slurm.State][]float64{}
	var all []float64
	for _, p := range points {
		per[p.State] = append(per[p.State], p.WaitSec)
		all = append(all, p.WaitSec)
	}
	out := WaitSummary{PerState: map[slurm.State]stats.Summary{}}
	for st, xs := range per {
		if s, err := stats.Summarize(xs); err == nil {
			out.PerState[st] = s
		}
	}
	if len(all) > 0 {
		qs, _ := stats.Quantiles(all, 0.5, 0.9, 0.99)
		out.P50, out.P90, out.P99 = qs[0], qs[1], qs[2]
		long := 0
		for _, w := range all {
			if w > 100_000 {
				long++
			}
		}
		out.LongWaits = float64(long) / float64(len(all))
	}
	return out
}

// BackfillSummary quantifies the Figure 6/9 phenomena.
type BackfillSummary struct {
	Jobs              int
	BackfilledShare   float64 // fraction of started jobs that backfilled
	OverestimateShare float64 // jobs using < 75% of their request
	MeanUseRatio      float64 // mean actual/requested
	MedianUseRatio    float64
	// Median actual runtimes split by scheduling path: backfilled jobs
	// skew short (the paper's key backfill observation).
	MedianActualBackfilled float64
	MedianActualRegular    float64
}

// SummarizeBackfill computes the Figure 6/9 summary.
func SummarizeBackfill(points []BackfillPoint) BackfillSummary {
	out := BackfillSummary{Jobs: len(points)}
	if len(points) == 0 {
		return out
	}
	var ratios, bf, reg []float64
	nBackfilled, nOver := 0, 0
	for _, p := range points {
		if p.RequestedSec <= 0 {
			continue
		}
		ratio := p.ActualSec / p.RequestedSec
		ratios = append(ratios, ratio)
		if ratio < 0.75 {
			nOver++
		}
		if p.Backfilled {
			nBackfilled++
			bf = append(bf, p.ActualSec)
		} else {
			reg = append(reg, p.ActualSec)
		}
	}
	out.BackfilledShare = float64(nBackfilled) / float64(len(points))
	out.OverestimateShare = float64(nOver) / float64(len(points))
	if s, err := stats.Summarize(ratios); err == nil {
		out.MeanUseRatio, out.MedianUseRatio = s.Mean, s.Median
	}
	if m, err := stats.Quantile(bf, 0.5); err == nil {
		out.MedianActualBackfilled = m
	}
	if m, err := stats.Quantile(reg, 0.5); err == nil {
		out.MedianActualRegular = m
	}
	return out
}

// UserBehaviorSummary quantifies the Figure 5/8 contrasts: how failure
// mass concentrates across users.
type UserBehaviorSummary struct {
	Users             int
	MeanFailedShare   float64
	StdFailedShare    float64 // cross-user variance: high on Frontier, low on Andes
	TopDecileFailures float64 // share of all failures owned by the top 10% of failing users
}

// SummarizeUsers computes the Figure 5/8 summary.
func SummarizeUsers(us []UserStates) UserBehaviorSummary {
	out := UserBehaviorSummary{Users: len(us)}
	if len(us) == 0 {
		return out
	}
	shares := make([]float64, len(us))
	failures := make([]float64, len(us))
	totalFailures := 0.0
	for i := range us {
		shares[i] = us[i].FailedShare()
		f := float64(us[i].Counts[slurm.StateFailed] + us[i].Counts[slurm.StateCancelled] +
			us[i].Counts[slurm.StateNodeFail] + us[i].Counts[slurm.StateOutOfMemory])
		failures[i] = f
		totalFailures += f
	}
	if s, err := stats.Summarize(shares); err == nil {
		out.MeanFailedShare, out.StdFailedShare = s.Mean, s.Std
	}
	if totalFailures > 0 {
		sorted := append([]float64(nil), failures...)
		sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
		top := int(math.Ceil(float64(len(sorted)) / 10))
		sum := 0.0
		for _, f := range sorted[:top] {
			sum += f
		}
		out.TopDecileFailures = sum / totalFailures
	}
	return out
}

// ScaleSummary quantifies the Figure 3/7 contrast between a capability
// system (Frontier) and a throughput system (Andes).
type ScaleSummary struct {
	Jobs             int
	MedianNodes      float64
	MedianElapsedSec float64
	SmallShortShare  float64 // ≤ 4 nodes and < 2 h
	LargeLongShare   float64 // ≥ 1000 nodes and ≥ 6 h
	NodeElapsedRho   float64 // Spearman rank correlation
}

// SummarizeScale computes the Figure 3/7 summary.
func SummarizeScale(points []NodesElapsedPoint) ScaleSummary {
	out := ScaleSummary{Jobs: len(points)}
	if len(points) == 0 {
		return out
	}
	nodes := make([]float64, len(points))
	elapsed := make([]float64, len(points))
	smallShort, largeLong := 0, 0
	for i, p := range points {
		nodes[i] = float64(p.Nodes)
		elapsed[i] = p.ElapsedSec
		if p.Nodes <= 4 && p.ElapsedSec < 7200 {
			smallShort++
		}
		if p.Nodes >= 1000 && p.ElapsedSec >= 6*3600 {
			largeLong++
		}
	}
	out.MedianNodes, _ = stats.Quantile(nodes, 0.5)
	out.MedianElapsedSec, _ = stats.Quantile(elapsed, 0.5)
	out.SmallShortShare = float64(smallShort) / float64(len(points))
	out.LargeLongShare = float64(largeLong) / float64(len(points))
	out.NodeElapsedRho, _ = stats.Spearman(nodes, elapsed)
	return out
}

// SystemComparison pairs two systems' summaries — the §4.3 portability
// analysis (and the future-work federated analytics hook).
type SystemComparison struct {
	NameA, NameB string
	ScaleA       ScaleSummary
	ScaleB       ScaleSummary
	UsersA       UserBehaviorSummary
	UsersB       UserBehaviorSummary
	BackfillA    BackfillSummary
	BackfillB    BackfillSummary
}

// CompareSystems computes the full cross-system contrast from two systems'
// collected bundles.
func CompareSystems(nameA string, a *Bundle, nameB string, b *Bundle) SystemComparison {
	return SystemComparison{
		NameA:     nameA,
		NameB:     nameB,
		ScaleA:    SummarizeScale(a.Scale.Result()),
		ScaleB:    SummarizeScale(b.Scale.Result()),
		UsersA:    SummarizeUsers(a.Users.Result(0)),
		UsersB:    SummarizeUsers(b.Users.Result(0)),
		BackfillA: SummarizeBackfill(a.Backfill.Result()),
		BackfillB: SummarizeBackfill(b.Backfill.Result()),
	}
}
