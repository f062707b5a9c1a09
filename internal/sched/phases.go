package sched

import (
	"time"

	"slurmsight/internal/obs"
)

// phase names a share of a metered run's wall clock. Every instant between
// Run's first statement and its return belongs to exactly one phase, so the
// published nanoseconds sum to the run's wall time by construction.
type phase int

const (
	// phaseEvents is event bookkeeping: building the event queue from the
	// requests, popping and handling events, the skipped-pass decay sweep
	// and the end-of-run drain.
	phaseEvents phase = iota
	// phaseReprioritize is the per-pass fair terms, one per non-empty
	// pending lane.
	phaseReprioritize
	// phaseMainPass is the reservation pass, buildHeads, mainPass and
	// finishPass: seeding the merge heap with each lane's best, placing
	// heads in priority order, and compacting the lanes that lost a job.
	phaseMainPass
	// phaseBackfill is the backfill policy's Pass.
	phaseBackfill
	// phaseNodeSelect is time inside a tracking NodeSelector, carved out of
	// whichever pass called it. The pool selector does no work and is not
	// timed, so this reads zero for it.
	phaseNodeSelect
	numPhases
)

var phaseNames = [numPhases]string{
	"events", "reprioritize", "main_pass", "backfill", "node_select",
}

// phaseClock attributes wall time to phases. It exists only on a metered
// simulator (Config.Metrics non-nil); on the unmetered path the pointer is
// nil, enter returns at once and no clock is ever read.
type phaseClock struct {
	cur  phase
	last time.Time
	ns   [numPhases]int64
}

// start opens the clock in phaseEvents.
func (c *phaseClock) start() {
	if c != nil {
		c.cur, c.last = phaseEvents, time.Now()
	}
}

// enter charges the time since the previous switch to the phase that was
// running and makes p current.
func (c *phaseClock) enter(p phase) {
	if c != nil {
		c.switchTo(p)
	}
}

// switchTo is enter on a clock known to exist; it returns the phase it
// displaced so a nested phase can hand control back.
func (c *phaseClock) switchTo(p phase) phase {
	now := time.Now()
	c.ns[c.cur] += int64(now.Sub(c.last))
	prev := c.cur
	c.cur, c.last = p, now
	return prev
}

// publish closes the running phase and adds every phase's nanoseconds to
// reg as sched_phase_ns_total{phase=…}.
func (c *phaseClock) publish(reg *obs.Registry) {
	if c == nil {
		return
	}
	c.switchTo(c.cur)
	for p, ns := range c.ns {
		reg.Counter(obs.Label("sched_phase_ns_total", "phase", phaseNames[p])).Add(ns)
	}
}

// timedSelector charges a tracking selector's work to phaseNodeSelect.
type timedSelector struct {
	NodeSelector
	clk *phaseClock
}

func (t timedSelector) Fits(j *job) bool {
	prev := t.clk.switchTo(phaseNodeSelect)
	ok := t.NodeSelector.Fits(j)
	t.clk.switchTo(prev)
	return ok
}

func (t timedSelector) Place(j *job) {
	prev := t.clk.switchTo(phaseNodeSelect)
	t.NodeSelector.Place(j)
	t.clk.switchTo(prev)
}

func (t timedSelector) Release(j *job) {
	prev := t.clk.switchTo(phaseNodeSelect)
	t.NodeSelector.Release(j)
	t.clk.switchTo(prev)
}
