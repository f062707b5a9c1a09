// Package analyze computes the per-figure aggregations of the paper's
// evaluation: job/step volume by year (Fig. 1), allocated nodes versus
// elapsed time (Figs. 3 and 7), queue wait times by final state (Fig. 4),
// job end states per user (Figs. 5 and 8), and requested-versus-actual
// walltimes split by backfill (Figs. 6 and 9) — plus the cross-system
// comparison used by the portability study (§4.3). Every aggregation is
// a Collector folded one record at a time; a Bundle holds one of each.
package analyze

import (
	"time"

	"slurmsight/internal/slurm"
)

// VolumeByYear is one Figure 1 bar pair.
type VolumeByYear struct {
	Year  int
	Jobs  int64
	Steps int64
}

// StepJobRatio returns total steps over total jobs across years.
func StepJobRatio(vols []VolumeByYear) float64 {
	var jobs, steps int64
	for _, v := range vols {
		jobs += v.Jobs
		steps += v.Steps
	}
	if jobs == 0 {
		return 0
	}
	return float64(steps) / float64(jobs)
}

// NodesElapsedPoint is one Figure 3/7 scatter point.
type NodesElapsedPoint struct {
	Nodes      int64
	ElapsedSec float64
	State      slurm.State
}

// WaitPoint is one Figure 4 scatter point: submission time on x, queue
// wait on y, coloured by final state.
type WaitPoint struct {
	Submit  time.Time
	WaitSec float64
	State   slurm.State
}

// UserStates is one Figure 5/8 stacked bar: a user's terminal-state mix.
type UserStates struct {
	User   string
	Counts map[slurm.State]int
	Total  int
}

// FailedShare returns the user's failed+cancelled fraction.
func (u *UserStates) FailedShare() float64 {
	if u.Total == 0 {
		return 0
	}
	bad := u.Counts[slurm.StateFailed] + u.Counts[slurm.StateCancelled] +
		u.Counts[slurm.StateNodeFail] + u.Counts[slurm.StateOutOfMemory]
	return float64(bad) / float64(u.Total)
}

// BackfillPoint is one Figure 6/9 scatter point.
type BackfillPoint struct {
	RequestedSec float64
	ActualSec    float64
	Backfilled   bool
	State        slurm.State
}
