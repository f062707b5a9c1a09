package sched

import (
	"testing"
	"time"

	"slurmsight/internal/slurm"
	"slurmsight/internal/tracegen"
)

// --- evResEnd fallback: pending tagged jobs retarget the general pool ---

// TestReservationFallbackAfterWindowClose pins the evResEnd fallback
// semantics: a tagged job that cannot get reservation capacity stays out
// of the general pool for the whole window — even with general nodes
// free — and dispatches there the instant the window closes.
func TestReservationFallbackAfterWindowClose(t *testing.T) {
	winEnd := t0.Add(2 * time.Hour)
	holder := req("holder", t0, 4, 2*time.Hour, 2*time.Hour)
	holder.Reservation = "beamtime"
	blocked := req("blocked", t0, 2, time.Hour, 30*time.Minute)
	blocked.Reservation = "beamtime"
	res := run(t, tinySystem(), []tracegen.Request{holder, blocked}, func(c *Config) {
		c.Reservations = []Reservation{{Name: "beamtime", Nodes: 4, Start: t0, End: winEnd}}
	})

	h := findJob(res, "holder")
	if !h.Start.Equal(t0) {
		t.Fatalf("holder started %v, want window open %v", h.Start, t0)
	}
	b := findJob(res, "blocked")
	// The holder exhausts the carve, so the blocked job pends through the
	// window despite 6 idle general nodes, then falls back at evResEnd.
	if !b.Start.Equal(winEnd) {
		t.Errorf("blocked job started %v, want window close %v", b.Start, winEnd)
	}
	if b.State != slurm.StateCompleted {
		t.Errorf("blocked job state %v", b.State)
	}
	// The record keeps the reservation it targeted even though it ended up
	// dispatched from the general pool.
	if b.Reservation != "beamtime" || b.ReservationID == 0 {
		t.Errorf("Reservation = %q, ReservationID = %d", b.Reservation, b.ReservationID)
	}
	if res.Stats.ReservationStarts != 1 {
		t.Errorf("ReservationStarts = %d, want 1 (holder only)", res.Stats.ReservationStarts)
	}
}

// --- preemption → requeue → planned cancel ---

// TestPreemptedThenCancelledWhilePending interleaves an eviction with a
// planned cancellation: the victim is preempted, requeued, and its cancel
// fires while it is pending again. It must count as never-started despite
// having run, and its record must carry the restart.
func TestPreemptedThenCancelledWhilePending(t *testing.T) {
	victim := req("victim", t0, 10, 8*time.Hour, 6*time.Hour)
	victim.QOS = "preemptible"
	victim.CancelAfter = 2 * time.Hour
	urgent := req("urgent", t0.Add(30*time.Minute), 10, 4*time.Hour, 3*time.Hour)
	urgent.QOS = "urgent"
	res := run(t, preemptSystem(), []tracegen.Request{victim, urgent}, nil)

	u := findJob(res, "urgent")
	if !u.Start.Equal(t0.Add(30 * time.Minute)) {
		t.Fatalf("urgent started %v, preemption did not fire", u.Start)
	}
	v := findJob(res, "victim")
	if v.State != slurm.StateCancelled {
		t.Errorf("victim state %v, want CANCELLED", v.State)
	}
	if !v.Start.IsZero() {
		t.Errorf("cancelled-while-pending victim has Start %v", v.Start)
	}
	if !v.End.Equal(t0.Add(2 * time.Hour)) {
		t.Errorf("victim end %v, want planned cancel time", v.End)
	}
	if v.Restarts != 1 {
		t.Errorf("victim Restarts = %d, want 1", v.Restarts)
	}
	st := res.Stats
	if st.Preemptions != 1 || st.PreemptedLost != 30*time.Minute {
		t.Errorf("Preemptions = %d, PreemptedLost = %v", st.Preemptions, st.PreemptedLost)
	}
	if st.JobsCancelled != 1 || st.NeverStarted != 1 || st.JobsCompleted != 1 {
		t.Errorf("cancelled = %d, neverStarted = %d, completed = %d",
			st.JobsCancelled, st.NeverStarted, st.JobsCompleted)
	}
}

// TestPreemptedWaitExcludesRunTime pins the wait-accounting fix: a
// preempted job's wait is the sum of its eligible-but-pending segments,
// not restart − submit, so the 30 minutes the victim ran before eviction
// must not show up as queue wait.
func TestPreemptedWaitExcludesRunTime(t *testing.T) {
	victim := req("victim", t0, 10, 6*time.Hour, 2*time.Hour)
	victim.QOS = "preemptible"
	urgent := req("urgent", t0.Add(30*time.Minute), 10, time.Hour, time.Hour)
	urgent.QOS = "urgent"
	res := run(t, preemptSystem(), []tracegen.Request{victim, urgent}, nil)

	restart := t0.Add(90 * time.Minute) // urgent ends, victim restarts
	v := findJob(res, "victim")
	if v.State != slurm.StateCompleted || !v.Start.Equal(restart) {
		t.Fatalf("victim state %v start %v, want COMPLETED at %v", v.State, v.Start, restart)
	}
	if v.Restarts != 1 || v.Suspended != 30*time.Minute {
		t.Errorf("Restarts = %d, Suspended = %v", v.Restarts, v.Suspended)
	}
	// Segment waits: victim 0 (first start) + 1h (eviction at t0+30m to
	// restart at t0+90m); urgent 0. The buggy start−submit accounting
	// would have credited 1h30m.
	if res.Stats.TotalWait != time.Hour {
		t.Errorf("TotalWait = %v, want 1h", res.Stats.TotalWait)
	}
	if res.Stats.MaxWait != time.Hour {
		t.Errorf("MaxWait = %v, want 1h", res.Stats.MaxWait)
	}
}
