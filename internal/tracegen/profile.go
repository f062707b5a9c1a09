package tracegen

import (
	"fmt"
	"time"

	"slurmsight/internal/cluster"
)

// Class is one job-class mixture component: a family of jobs with a shared
// size/runtime/step-structure/outcome profile.
type Class struct {
	Name   string
	Weight float64 // share of submitted jobs

	Nodes Dist // node count (rounded, clamped to partition policy)
	// SubNodeCores, when set, marks a sub-node class: jobs take one node
	// and request this many cores, so schedulers with node sharing can
	// pack them (Nodes is ignored).
	SubNodeCores Dist
	Runtime      Dist // true runtime in seconds, had the job run to completion

	// Overestimate is the multiplicative factor users apply when turning
	// an expected runtime into a --time request. Values well above 1
	// reproduce the paper's systematic walltime over-estimation.
	Overestimate Dist

	Steps Dist // srun steps per job

	// Outcome base rates; the remainder completes. A per-user multiplier
	// scales FailRate and CancelRate to concentrate failures in a few
	// users (the Figure 5 phenomenon).
	FailRate     float64
	CancelRate   float64
	TimeoutRate  float64
	NodeFailRate float64
	OOMRate      float64

	// ArrayProb is the probability a submission is a job array of
	// ArraySize tasks (each task becomes its own accounting record).
	ArrayProb float64
	ArraySize Dist

	// ChainProb is the probability a submission is a dependency chain
	// (an afterok pipeline) of ChainLen jobs submitted together.
	ChainProb float64
	ChainLen  Dist

	QOS       string
	Partition string // empty means the system default partition
}

// Profile is a complete workload description for one system and era.
type Profile struct {
	Name    string
	System  *cluster.System
	Classes []Class

	// Users is the active user population size; activity across users is
	// Zipf(UserSkew) so a few users dominate submissions.
	Users    int
	UserSkew float64

	// FailSpread is the multiplicative spread (lognormal sigma factor) of
	// per-user failure multipliers. Large values reproduce Frontier's
	// concentrated failures; small values, Andes' uniformity.
	FailSpread float64

	// JobsPerDay is the mean submission rate before diurnal and weekly
	// modulation.
	JobsPerDay float64
}

// FrontierProfile models the production era (April 2023 onward): a broad
// mixture from hero runs to near-real-time steering jobs, heavy srun use,
// heterogeneous users with concentrated failures.
func FrontierProfile() Profile {
	day := func(h float64) float64 { return h * 3600 }
	return Profile{
		Name:       "frontier-production",
		System:     cluster.Frontier(),
		Users:      1100,
		UserSkew:   1.05,
		FailSpread: 3.0,
		JobsPerDay: 850,
		Classes: []Class{
			{
				Name: "hero", Weight: 0.01,
				Nodes:        Clamped{LogNormalMedian(4600, 1.6), 1882, 9408},
				Runtime:      Clamped{LogNormalMedian(day(8), 1.8), 3600, day(24)},
				Overestimate: Clamped{LogNormalMedian(1.35, 1.25), 1.0, 3},
				Steps:        Clamped{LogNormalMedian(3, 1.8), 1, 12},
				FailRate:     0.08, CancelRate: 0.05, TimeoutRate: 0.06, NodeFailRate: 0.02,
				QOS: "normal",
			},
			{
				Name: "capability", Weight: 0.07,
				Nodes:        Clamped{LogNormalMedian(512, 2.2), 184, 5644},
				Runtime:      Clamped{LogNormalMedian(day(3), 2.0), 600, day(12)},
				Overestimate: Clamped{LogNormalMedian(1.8, 1.5), 1.0, 6},
				Steps:        Clamped{LogNormalMedian(4, 2.0), 1, 40},
				FailRate:     0.10, CancelRate: 0.06, TimeoutRate: 0.05, NodeFailRate: 0.01, OOMRate: 0.01,
				QOS: "normal",
			},
			{
				Name: "ensemble", Weight: 0.28,
				Nodes:        Clamped{LogNormalMedian(4, 2.5), 1, 183},
				Runtime:      Clamped{LogNormalMedian(day(0.6), 2.4), 60, day(6)},
				Overestimate: Clamped{LogNormalMedian(2.6, 1.8), 1.0, 12},
				Steps:        Clamped{LogNormalMedian(10, 2.2), 1, 300},
				FailRate:     0.12, CancelRate: 0.08, TimeoutRate: 0.04, OOMRate: 0.02,
				ArrayProb: 0.35, ArraySize: Clamped{LogNormalMedian(16, 2.0), 2, 128},
				QOS: "normal",
			},
			{
				Name: "ai-training", Weight: 0.14,
				Nodes:        Clamped{LogNormalMedian(32, 2.4), 1, 1024},
				Runtime:      Clamped{LogNormalMedian(day(2), 2.0), 600, day(12)},
				Overestimate: Clamped{LogNormalMedian(2.2, 1.6), 1.0, 8},
				Steps:        Clamped{LogNormalMedian(8, 2.2), 1, 150},
				FailRate:     0.14, CancelRate: 0.09, TimeoutRate: 0.07, OOMRate: 0.04,
				ChainProb: 0.15, ChainLen: Clamped{LogNormalMedian(3, 1.5), 2, 8},
				QOS: "normal",
			},
			{
				Name: "debug", Weight: 0.15,
				Nodes:        Clamped{LogNormalMedian(2, 2.0), 1, 64},
				Runtime:      Clamped{LogNormalMedian(day(0.15), 2.2), 30, day(2)},
				Overestimate: Clamped{LogNormalMedian(3.5, 1.8), 1.0, 20},
				Steps:        Clamped{LogNormalMedian(5, 2.2), 1, 60},
				FailRate:     0.20, CancelRate: 0.12, TimeoutRate: 0.03, OOMRate: 0.02,
				QOS: "debug",
			},
			{
				Name: "near-real-time", Weight: 0.27,
				Nodes:        Clamped{LogNormalMedian(2, 1.8), 1, 32},
				Runtime:      Clamped{LogNormalMedian(day(0.08), 2.0), 20, day(1)},
				Overestimate: Clamped{LogNormalMedian(3.0, 1.8), 1.0, 20},
				Steps:        Clamped{LogNormalMedian(6, 2.0), 1, 100},
				FailRate:     0.07, CancelRate: 0.05, TimeoutRate: 0.02,
				ChainProb: 0.10, ChainLen: Clamped{LogNormalMedian(3, 1.4), 2, 6},
				QOS: "normal",
			},
			{
				// Experiment-steering jobs on the urgent QoS: small,
				// short, and entitled to preempt opportunistic work.
				Name: "urgent-steering", Weight: 0.03,
				Nodes:        Clamped{LogNormalMedian(4, 1.8), 1, 64},
				Runtime:      Clamped{LogNormalMedian(day(0.05), 1.8), 30, day(0.5)},
				Overestimate: Clamped{LogNormalMedian(1.8, 1.4), 1.0, 6},
				Steps:        Clamped{LogNormalMedian(3, 1.8), 1, 20},
				FailRate:     0.05, CancelRate: 0.03, TimeoutRate: 0.02,
				QOS: "urgent",
			},
			{
				// Opportunistic capacity soak on the preemptible QoS.
				Name: "opportunistic", Weight: 0.05,
				Nodes:        Clamped{LogNormalMedian(64, 2.2), 8, 1024},
				Runtime:      Clamped{LogNormalMedian(day(1.5), 1.8), 1800, day(12)},
				Overestimate: Clamped{LogNormalMedian(1.6, 1.4), 1.0, 4},
				Steps:        Clamped{LogNormalMedian(4, 2.0), 1, 40},
				FailRate:     0.06, CancelRate: 0.04, TimeoutRate: 0.04,
				QOS: "preemptible",
			},
		},
	}
}

// FrontierAcceptanceProfile models the pre-production era (2021 through
// March 2023): sparse submissions dominated by acceptance tests and early
// hero runs, which Figure 1 shows and the study then excludes.
func FrontierAcceptanceProfile() Profile {
	day := func(h float64) float64 { return h * 3600 }
	return Profile{
		Name:       "frontier-acceptance",
		System:     cluster.Frontier(),
		Users:      120,
		UserSkew:   1.2,
		FailSpread: 2.0,
		JobsPerDay: 220,
		Classes: []Class{
			{
				Name: "acceptance", Weight: 0.55,
				Nodes:        Clamped{LogNormalMedian(1024, 2.6), 1, 9408},
				Runtime:      Clamped{LogNormalMedian(day(1), 2.4), 60, day(12)},
				Overestimate: Clamped{LogNormalMedian(2.0, 1.6), 1.0, 8},
				Steps:        Clamped{LogNormalMedian(6, 2.4), 1, 100},
				FailRate:     0.22, CancelRate: 0.10, TimeoutRate: 0.05, NodeFailRate: 0.05,
				QOS: "normal",
			},
			{
				Name: "early-hero", Weight: 0.45,
				Nodes:        Clamped{LogNormalMedian(5000, 1.6), 1024, 9408},
				Runtime:      Clamped{LogNormalMedian(day(6), 1.9), 1800, day(24)},
				Overestimate: Clamped{LogNormalMedian(1.5, 1.4), 1.0, 4},
				Steps:        Clamped{LogNormalMedian(3, 1.9), 1, 20},
				FailRate:     0.15, CancelRate: 0.06, TimeoutRate: 0.08, NodeFailRate: 0.04,
				QOS: "normal",
			},
		},
	}
}

// AndesProfile models the throughput-oriented analysis cluster: dense
// small/short jobs, interactive work, tighter walltime estimates, lower
// and more uniform failure rates (the Figure 7–9 contrasts).
func AndesProfile() Profile {
	day := func(h float64) float64 { return h * 3600 }
	return Profile{
		Name:       "andes-2024",
		System:     cluster.Andes(),
		Users:      450,
		UserSkew:   0.85,
		FailSpread: 1.5,
		JobsPerDay: 600,
		Classes: []Class{
			{
				Name: "analysis", Weight: 0.52,
				Nodes:        Clamped{LogNormalMedian(1.3, 1.8), 1, 16},
				Runtime:      Clamped{LogNormalMedian(day(0.4), 2.0), 60, day(12)},
				Overestimate: Clamped{LogNormalMedian(1.7, 1.4), 1.0, 5},
				Steps:        Clamped{LogNormalMedian(4, 2.2), 1, 80},
				FailRate:     0.06, CancelRate: 0.04, TimeoutRate: 0.03,
				QOS: "normal",
			},
			{
				Name: "interactive", Weight: 0.28,
				Nodes:        Const(1),
				SubNodeCores: Clamped{LogNormalMedian(8, 2.0), 1, 32},
				Runtime:      Clamped{LogNormalMedian(day(0.1), 1.9), 30, day(2)},
				Overestimate: Clamped{LogNormalMedian(2.0, 1.5), 1.0, 8},
				Steps:        Clamped{LogNormalMedian(3, 2.0), 1, 40},
				FailRate:     0.04, CancelRate: 0.05, TimeoutRate: 0.02,
				QOS: "normal",
			},
			{
				Name: "ensemble", Weight: 0.14,
				Nodes:        Clamped{LogNormalMedian(2, 2.0), 1, 32},
				Runtime:      Clamped{LogNormalMedian(day(0.25), 2.0), 60, day(6)},
				Overestimate: Clamped{LogNormalMedian(1.9, 1.5), 1.0, 6},
				Steps:        Clamped{LogNormalMedian(12, 2.2), 1, 200},
				FailRate:     0.07, CancelRate: 0.05, TimeoutRate: 0.03, OOMRate: 0.01,
				ArrayProb: 0.30, ArraySize: Clamped{LogNormalMedian(10, 1.8), 2, 64},
				QOS: "normal",
			},
			{
				Name: "campaign", Weight: 0.06,
				Nodes:        Clamped{LogNormalMedian(32, 2.0), 4, 384},
				Runtime:      Clamped{LogNormalMedian(day(6), 1.9), 1800, day(48)},
				Overestimate: Clamped{LogNormalMedian(1.5, 1.3), 1.0, 3},
				Steps:        Clamped{LogNormalMedian(4, 2.0), 1, 40},
				FailRate:     0.07, CancelRate: 0.04, TimeoutRate: 0.05,
				QOS: "normal",
			},
		},
	}
}

// ProfileByName returns a system's built-in production profile, which
// carries the system's model: "frontier" or "andes".
func ProfileByName(name string) (Profile, error) {
	switch name {
	case "frontier":
		return FrontierProfile(), nil
	case "andes":
		return AndesProfile(), nil
	}
	return Profile{}, fmt.Errorf("tracegen: unknown system %q", name)
}

// Phase pairs a profile with the half-open time window it governs.
type Phase struct {
	Profile Profile
	Start   time.Time
	End     time.Time
}

// FrontierScenario returns the full 2021–2024 Figure 1 timeline: the
// acceptance era followed by production from April 2023.
func FrontierScenario(start, end time.Time) []Phase {
	cut := time.Date(2023, 4, 1, 0, 0, 0, 0, time.UTC)
	switch {
	case !end.After(cut):
		return []Phase{{Profile: FrontierAcceptanceProfile(), Start: start, End: end}}
	case !start.Before(cut):
		return []Phase{{Profile: FrontierProfile(), Start: start, End: end}}
	default:
		return []Phase{
			{Profile: FrontierAcceptanceProfile(), Start: start, End: cut},
			{Profile: FrontierProfile(), Start: cut, End: end},
		}
	}
}
