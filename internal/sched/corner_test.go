package sched

import (
	"strings"
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

// --- instants outside int64 Unix nanoseconds ---

// TestRunRefusesInstantsItCannotHold pins the range check: the simulator
// keeps every instant as int64 Unix nanoseconds, which hold 1678 to 2262,
// so a request whose submit, walltime-limit end or planned cancel falls
// outside is an error naming the request, not a run on wrapped times; so
// is a reservation window outside it, in New.
func TestRunRefusesInstantsItCannotHold(t *testing.T) {
	edge := time.Date(2262, 4, 11, 0, 0, 0, 0, time.UTC) // ~12 h inside the range
	cases := []struct {
		name, want string
		mutate     func(r *tracegen.Request)
	}{
		{"year 2300 submit", "submit 2300-01-01", func(r *tracegen.Request) {
			r.Submit = time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC)
		}},
		{"year 1600 submit", "submit 1600-01-01", func(r *tracegen.Request) {
			r.Submit = time.Date(1600, 1, 1, 0, 0, 0, 0, time.UTC)
		}},
		{"limit past 2262", "submit+timelimit", func(r *tracegen.Request) {
			r.Submit, r.Timelimit = edge, 24*time.Hour
		}},
		{"cancel past 2262", "cancel", func(r *tracegen.Request) {
			r.Submit, r.Timelimit, r.CancelAfter = edge, time.Hour, 24*time.Hour
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			reqs := []tracegen.Request{
				req("ok", t0, 1, time.Hour, time.Hour),
				req("far", t0, 1, time.Hour, time.Hour),
			}
			c.mutate(&reqs[1])
			sim, err := New(DefaultConfig(tinySystem()))
			if err != nil {
				t.Fatal(err)
			}
			_, err = sim.Run(reqs, Options{})
			if err == nil || !strings.Contains(err.Error(), "request 1: "+c.want) {
				t.Fatalf("Run = %v, want an error naming request 1's %s", err, c.want)
			}
		})
	}
	cfg := DefaultConfig(tinySystem())
	cfg.Reservations = []Reservation{{Name: "far", Nodes: 1, Start: t0, End: time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC)}}
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "reservation far window is outside") {
		t.Errorf("New = %v, want the year-2300 reservation window refused", err)
	}
	// The last instants the range holds still run.
	r := req("edge", edge, 1, time.Hour, time.Hour)
	r.CancelAfter = 2 * time.Hour
	if res := run(t, tinySystem(), []tracegen.Request{r}, nil); !res.Jobs[0].End.Equal(edge.Add(time.Hour)) {
		t.Errorf("edge job ends %v, want %v", res.Jobs[0].End, edge.Add(time.Hour))
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
