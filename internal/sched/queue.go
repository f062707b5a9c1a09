package sched

// Hot-path containers for the simulator core. Three sets dominate the
// per-event cost profile:
//
//   - s.pending is a position-tracked array (j.pendIdx) of compact
//     pendEntry values giving O(1) swap-removal between passes; each
//     scheduling pass heapifies it in place into a max-heap on
//     (priority desc, seq asc) and pops only the jobs it actually
//     examines. Because seq is unique the key is a total order, so
//     popping reproduces the legacy stable sort's order exactly without
//     ever sorting the whole queue. The entries carry every
//     priority-recompute input inline (eligibility, static term, usage
//     accumulator), so the per-pass refresh and the heap comparisons
//     stream over one contiguous array instead of chasing job pointers
//     across the arena — the difference between a memory-bound and a
//     compute-bound pass on deep queues.
//   - s.running is maintained as a min-heap keyed by walltime-limit end,
//     so the backfill shadow computation consumes releases in limit order
//     from a scratch copy instead of re-sorting every running job on each
//     pass.
//   - s.events is a binary heap with concrete push/pop (no container/heap
//     interface boxing, which allocated on every event).
//
// All heap keys are int64 Unix nanoseconds or plain int64s: time.Time
// comparisons (three-word loads, wall/mono branches) are too expensive at
// billions of comparisons per run, and the ns difference of two wall-clock
// Times is bit-identical to Time.Sub for the simulated epochs.

// pendEntry is one pending job's slot in the queue: the heap key plus the
// inputs reprioritize needs, snapshotted at insertion (all are invariant
// while the job is in the container — eligibility only changes when a job
// re-enters after a dependency release or an eviction).
type pendEntry struct {
	prio   int64      // heap key: current priority
	seq    int64      // heap tie-break: submission order
	eligNs int64      // eligible time, Unix ns (age-term input)
	static int64      // base + size + QoS priority component
	usage  *userUsage // the job's user's fair-share accumulator
	j      *job
}

// pendBefore orders the pending queue: priority descending, submission
// sequence ascending as the tie-break.
func pendBefore(a, b *pendEntry) bool {
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	return a.seq < b.seq
}

// pendAdd appends a job to the pending array. No heap order is maintained
// between passes; heapifyPending restores it at the start of each pass.
// The carried priority only matters in cadence mode, where a skipped job
// must keep the value from its last recompute.
func (s *Simulator) pendAdd(j *job) {
	j.pendIdx = int32(len(s.pending))
	s.pending = append(s.pending, pendEntry{
		prio: j.priority, seq: j.seq, eligNs: j.eligible, static: j.static,
		usage: j.usage, j: j,
	})
}

// pendRemove swap-removes a pending job by its tracked index in O(1).
func (s *Simulator) pendRemove(j *job) {
	i := j.pendIdx
	last := int32(len(s.pending) - 1)
	s.pending[i] = s.pending[last]
	s.pending[i].j.pendIdx = i
	s.pending[last] = pendEntry{}
	s.pending = s.pending[:last]
	j.pendIdx = -1
}

// heapifyPending establishes the max-heap property over the pending array.
func (s *Simulator) heapifyPending() {
	for i := len(s.pending)/2 - 1; i >= 0; i-- {
		s.pendSiftDown(i)
	}
}

func (s *Simulator) pendSiftDown(i int) {
	h := s.pending
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		best := l
		if r := l + 1; r < n && pendBefore(&h[r], &h[l]) {
			best = r
		}
		if !pendBefore(&h[best], &h[i]) {
			return
		}
		h[i], h[best] = h[best], h[i]
		h[i].j.pendIdx, h[best].j.pendIdx = int32(i), int32(best)
		i = best
	}
}

// pendPop removes and returns the highest-priority pending job; the array
// must satisfy the heap property.
func (s *Simulator) pendPop() *job {
	h := s.pending
	last := len(h) - 1
	top := h[0].j
	h[0] = h[last]
	h[0].j.pendIdx = 0
	h[last] = pendEntry{}
	s.pending = h[:last]
	if last > 0 {
		s.pendSiftDown(0)
	}
	top.pendIdx = -1
	return top
}

// runBefore orders the running min-heap: walltime-limit end ascending,
// sequence ascending as the deterministic tie-break.
func runBefore(a, b *job) bool {
	if a.limitEnd != b.limitEnd {
		return a.limitEnd < b.limitEnd
	}
	return a.seq < b.seq
}

func (s *Simulator) runAdd(j *job) {
	h := s.running
	i := len(h)
	j.runIdx = int32(i)
	h = append(h, j)
	s.running = h
	for i > 0 {
		p := (i - 1) / 2
		if !runBefore(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		h[i].runIdx, h[p].runIdx = int32(i), int32(p)
		i = p
	}
}

// runRemove deletes a job from the running heap via its tracked index.
func (s *Simulator) runRemove(j *job) {
	h := s.running
	i := int(j.runIdx)
	last := len(h) - 1
	h[i] = h[last]
	h[i].runIdx = int32(i)
	h[last] = nil
	s.running = h[:last]
	if i < last {
		s.runSiftDown(i)
		s.runSiftUp(i)
	}
	j.runIdx = -1
}

func (s *Simulator) runSiftUp(i int) {
	h := s.running
	for i > 0 {
		p := (i - 1) / 2
		if !runBefore(h[i], h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		h[i].runIdx, h[p].runIdx = int32(i), int32(p)
		i = p
	}
}

func (s *Simulator) runSiftDown(i int) {
	h := s.running
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		best := l
		if r := l + 1; r < n && runBefore(h[r], h[l]) {
			best = r
		}
		if !runBefore(h[best], h[i]) {
			return
		}
		h[i], h[best] = h[best], h[i]
		h[i].runIdx, h[best].runIdx = int32(i), int32(best)
		i = best
	}
}

// shadowPop pops the earliest-limit job from a scratch copy of the running
// heap without touching the jobs' tracked indices, so shadowTime can
// consume releases in order while s.running stays intact.
func shadowPop(h []*job) (*job, []*job) {
	last := len(h) - 1
	top := h[0]
	h[0] = h[last]
	h[last] = nil
	h = h[:last]
	i := 0
	for {
		l := 2*i + 1
		if l >= last {
			break
		}
		best := l
		if r := l + 1; r < last && runBefore(h[r], h[l]) {
			best = r
		}
		if !runBefore(h[best], h[i]) {
			break
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
	return top, h
}

// eventBefore orders the event queue: time, then kind (cancellations of
// pending jobs beat node releases beat submissions beat reservation
// transitions), then insertion sequence.
func eventBefore(a, b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.seq < b.seq
}

func (s *Simulator) pushEvent(e event) {
	s.events = append(s.events, e)
	h := s.events
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventBefore(&h[i], &h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (s *Simulator) popEvent() event {
	h := s.events
	last := len(h) - 1
	top := h[0]
	h[0] = h[last]
	h[last] = event{}
	h = h[:last]
	s.events = h
	i := 0
	for {
		l := 2*i + 1
		if l >= last {
			break
		}
		best := l
		if r := l + 1; r < last && eventBefore(&h[r], &h[l]) {
			best = r
		}
		if !eventBefore(&h[best], &h[i]) {
			break
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
	return top
}
