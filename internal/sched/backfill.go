package sched

import (
	"fmt"
	"sort"
)

// BackfillPolicy decides which lower-priority pending jobs may start while
// the highest-priority job is blocked waiting for capacity. The pass runs
// after the main priority loop, consumes jobs via s.nextPending(), and
// starts the ones it admits (s.startJob with backfill=true); a job it
// leaves stays queued.
type BackfillPolicy interface {
	// Pass runs the backfill phase at tNs (Unix ns); head is the blocked
	// highest-priority job (still pending).
	Pass(s *Simulator, head *job, tNs int64)
}

// BackfillByName resolves a backfill policy: "easy" (the default),
// "conservative", or "none".
func BackfillByName(name string) (BackfillPolicy, error) {
	switch name {
	case "", "easy":
		return easyBackfill{}, nil
	case "conservative":
		return &conservativeBackfill{}, nil
	case "none":
		return noBackfill{}, nil
	}
	return nil, fmt.Errorf("sched: unknown backfill policy %q", name)
}

// noBackfill is the ablation baseline: the blocked head blocks everything
// (pure priority-order FIFO behind the head).
type noBackfill struct{}

func (noBackfill) Pass(*Simulator, *job, int64) {}

// easyBackfill implements EASY backfill: find the shadow time at which the
// head can start, assuming running jobs end at their walltime limits, then
// start lower-priority jobs that cannot delay it. This is the pre-refactor
// backfillPass, bar the stop below; the golden determinism tests pin it bit
// for bit.
//
// Both passes stop once no core is free. That drops nothing: free cores
// only fall during a pass, every job needs at least one, the jobs left
// unpopped stay queued as they would have (a reservation-tagged one always
// does), and conservative's profile is rebuilt every pass, so a
// reservation for a job the scan never reached would have constrained
// nothing it did reach. The pending key is a total order, so jobs left
// unpopped change no later pop.
type easyBackfill struct{}

func (easyBackfill) Pass(s *Simulator, head *job, tNs int64) {
	shadowNs, extra := s.shadowTime(head, tNs)
	free := s.freeCores
	depth := s.cfg.BackfillDepth
	if depth == 0 {
		depth = s.npending
	}
	considered := 0
	for considered < depth && s.freeCores > 0 {
		j := s.nextPending()
		if j == nil {
			break
		}
		if j.res != nil {
			continue
		}
		considered++
		cores := int(j.cores)
		if cores > free || !s.sel.Fits(j) {
			continue
		}
		endsByNs := tNs + int64(j.req.Timelimit)
		fitsExtra := cores <= extra
		if endsByNs <= shadowNs || fitsExtra {
			s.startJob(j, tNs, true)
			free -= cores
			if endsByNs > shadowNs && fitsExtra {
				extra -= cores
			}
		}
	}
	s.mBackfillAtt.Add(int64(considered))
}

// conservativeBackfill reserves a future start for every blocked job it
// examines, not just the head: a candidate may start now only if running it
// to its walltime limit delays none of the reservations made so far. It
// trades backfill throughput for a hard no-starvation guarantee on every
// queued job within the pass depth (Slurm's bf_min_prio_reserve-everything
// regime), and is the contrast policy the tournament races against EASY.
type conservativeBackfill struct {
	prof freeProfile // reusable pass-time availability profile
}

func (c *conservativeBackfill) Pass(s *Simulator, head *job, tNs int64) {
	c.prof.reset(tNs, s.freeCores)
	// Future releases from running jobs at their walltime limits.
	// Reservation-pool jobs are excluded: their cores return to the
	// reservation, not the general pool.
	for _, j := range s.running {
		if j.res != nil {
			continue
		}
		at := j.limitEnd
		if at < tNs {
			at = tNs
		}
		c.prof.release(at, int(j.cores))
	}
	// The head holds the earliest slot it fits.
	c.prof.reserve(c.prof.earliestFit(int(head.cores), int64(head.req.Timelimit)),
		int(head.cores), int64(head.req.Timelimit))

	depth := s.cfg.BackfillDepth
	if depth == 0 {
		depth = s.npending
	}
	considered := 0
	for considered < depth && s.freeCores > 0 {
		j := s.nextPending()
		if j == nil {
			break
		}
		if j.res != nil {
			continue
		}
		considered++
		cores := int(j.cores)
		durNs := int64(j.req.Timelimit)
		at := c.prof.earliestFit(cores, durNs)
		if at == tNs && cores <= s.freeCores && s.sel.Fits(j) {
			c.prof.reserve(at, cores, durNs)
			s.startJob(j, tNs, true)
			continue
		}
		// Not startable now: hold its future slot so nothing examined
		// later can delay it.
		if at >= 0 {
			c.prof.reserve(at, cores, durNs)
		}
	}
	s.mBackfillAtt.Add(int64(considered))
}

// freeProfile is a stepwise free-core availability timeline: pts[i].free
// cores are available from pts[i].t (Unix ns) until pts[i+1].t, and beyond
// the last point availability stays at the last value.
type freeProfile struct {
	pts []profPoint
}

type profPoint struct {
	t    int64
	free int
}

func (p *freeProfile) reset(nowNs int64, free int) {
	p.pts = p.pts[:0]
	p.pts = append(p.pts, profPoint{t: nowNs, free: free})
}

// release adds cores to every point at or after tNs, inserting a
// breakpoint when needed.
func (p *freeProfile) release(tNs int64, cores int) {
	i := p.insertAt(tNs)
	for ; i < len(p.pts); i++ {
		p.pts[i].free += cores
	}
}

// reserve subtracts cores over [startNs, startNs+durNs). A negative start
// (no fit exists) is a no-op.
func (p *freeProfile) reserve(startNs int64, cores int, durNs int64) {
	if startNs < 0 {
		return
	}
	end := startNs + durNs
	i := p.insertAt(startNs)
	j := p.insertAt(end)
	for ; i < j; i++ {
		p.pts[i].free -= cores
	}
}

// insertAt returns the index of the breakpoint at exactly tNs, inserting
// one (carrying the prevailing availability) when absent. Times before the
// profile start clamp to the first point.
func (p *freeProfile) insertAt(tNs int64) int {
	i := sort.Search(len(p.pts), func(k int) bool { return p.pts[k].t >= tNs })
	if i < len(p.pts) && p.pts[i].t == tNs {
		return i
	}
	if i == 0 {
		return 0
	}
	p.pts = append(p.pts, profPoint{})
	copy(p.pts[i+1:], p.pts[i:])
	p.pts[i] = profPoint{t: tNs, free: p.pts[i-1].free}
	return i
}

// earliestFit finds the earliest start time at which cores are available
// continuously for durNs, or -1 when no such window ever opens (the job
// exceeds what the pool can free).
func (p *freeProfile) earliestFit(cores int, durNs int64) int64 {
	for i := 0; i < len(p.pts); i++ {
		if p.pts[i].free < cores {
			continue
		}
		start := p.pts[i].t
		end := start + durNs
		ok := true
		for k := i + 1; k < len(p.pts) && p.pts[k].t < end; k++ {
			if p.pts[k].free < cores {
				ok = false
				i = k - 1 // outer i++ resumes the scan at the violation
				break
			}
		}
		if ok {
			return start
		}
	}
	return -1
}
