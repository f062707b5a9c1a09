package sched

import "slices"

// Hot-path containers for the simulator core. Three sets dominate the
// per-event cost profile:
//
//   - The pending queue is one lane per user. A lane holds its user's
//     pending jobs sorted on a key that does not move with time,
//     a = static − slope·(eligible − origin), then seq ascending, where
//     slope (PriorityPolicy.AgeSlope) bounds the age term's growth:
//     Age(age) ≤ slope·age whether the age is capped or not. Every job of
//     a lane shares its user's fair term, so a pass computes one fair term
//     per non-empty lane, not one priority per job. The lanes are carved at
//     Run start from one entry array, each sized to its user's request
//     count, since a job is in its lane at most once.
//
//     A pass merges the lanes' bests in a small heap of inline-keyed heads,
//     one per lane. A lane's best is found by scanning forward from its
//     cursor, computing exact keys, while a + slope·t + ε can still reach
//     the best exact key found so far: past that point no entry's key can
//     tie it, so the ±1 truncation ties of the age term are covered and
//     the merge yields exactly the old (priority desc, seq asc) order. ε
//     bounds the float rounding of the bound. Under FIFO or a zero age
//     weight slope and ε are 0, the key is the static term exactly, and a
//     lane's first unvisited entry is its best.
//
//     A pass never re-queues what it looks at. The lane remembers the last
//     key it yielded, and everything at or above it is visited; startJob
//     marks a job taken, and finishPass compacts only the lanes that lost a
//     job and re-queues preemption victims.
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

// laneEntry is one pending job in its user's lane: the sort key and the
// inputs of its exact priority, inline, so a scan streams over the lane
// instead of chasing job pointers. All are invariant while the job is
// queued; eligibility only changes when a job re-enters after a dependency
// release or an eviction.
type laneEntry struct {
	a      float64 // static − slope·(eligible − origin), the lane order
	static int64   // base + size + QoS priority component
	elig   int64   // eligible time, Unix ns (age-term input)
	seq    int64   // submission order, the tie-break
	j      *job
}

// laneBefore orders a lane: the time-invariant key descending, then the
// static term descending (which makes the order exact when slope is 0),
// then seq ascending.
func laneBefore(x, y *laneEntry) bool {
	if x.a != y.a {
		return x.a > y.a
	}
	if x.static != y.static {
		return x.static > y.static
	}
	return x.seq < y.seq
}

// lane is one user's pending jobs and what the current pass knows of them.
type lane struct {
	ent   []laneEntry // sorted by laneBefore; capacity is the user's request count
	usage *userUsage
	fair  int64 // the pass's fair term
	act   int32 // position in s.active, -1 while the lane is empty
	cur   int32 // entries before it have been visited this pass
	// The last entry the pass took from the lane, as its lane-local key
	// (static + age) and seq: every entry ranking at or above it has been
	// visited, and none below it has.
	lastKey, lastSeq int64
	popped           bool
	dirty            bool // lost a job this pass: compact at its end
}

// laneHead is a lane's best unvisited entry in the pass's merge heap, keyed
// inline: (prio desc, seq asc) is the old pending queue's total order.
type laneHead struct {
	prio int64 // exact priority: lane-local key + fair term
	seq  int64
	lane int32
	idx  int32 // entry index in the lane
}

func headBefore(x, y *laneHead) bool {
	if x.prio != y.prio {
		return x.prio > y.prio
	}
	return x.seq < y.seq
}

// carveLanes gives each user's lane its share of one entry array of n
// entries: counts holds each lane's request count, in lane order. Both
// arrays come from the run's scratch.
func (s *Simulator) carveLanes(sc *runScratch, n int, counts []int32) {
	sc.ents = reuse(sc.ents, n)[:n]
	sc.lanes = reuse(sc.lanes, len(counts))[:len(counts)]
	ents := sc.ents
	s.lanes = sc.lanes
	off := 0
	for i, n := range counts {
		s.lanes[i] = lane{ent: ents[off : off : off+int(n)], act: -1}
		off += int(n)
	}
	for _, u := range s.usage {
		s.lanes[u.lane].usage = u
	}
}

// pendAdd queues a job in its user's lane, in lane order.
func (s *Simulator) pendAdd(j *job) {
	li := j.usage.lane
	l := &s.lanes[li]
	e := laneEntry{
		a:      float64(j.static) - s.slope*float64(j.eligible-s.origin),
		static: j.static, elig: j.eligible, seq: j.seq, j: j,
	}
	n := len(l.ent)
	i, hi := 0, n
	for i < hi {
		m := int(uint(i+hi) >> 1)
		if laneBefore(&l.ent[m], &e) {
			i = m + 1
		} else {
			hi = m
		}
	}
	l.ent = l.ent[:n+1]
	copy(l.ent[i+1:], l.ent[i:n])
	l.ent[i] = e
	j.queued = true
	if n == 0 {
		l.act = int32(len(s.active))
		s.active = append(s.active, li)
	}
}

// pendRemove takes a cancelled job out of its lane between passes.
func (s *Simulator) pendRemove(j *job) {
	l := &s.lanes[j.usage.lane]
	i := slices.IndexFunc(l.ent, func(e laneEntry) bool { return e.j == j })
	copy(l.ent[i:], l.ent[i+1:])
	l.ent[len(l.ent)-1] = laneEntry{}
	l.ent = l.ent[:len(l.ent)-1]
	j.queued = false
	if len(l.ent) == 0 {
		s.deactivate(l)
	}
}

// deactivate drops an emptied lane from the active list.
func (s *Simulator) deactivate(l *lane) {
	last := len(s.active) - 1
	moved := s.active[last]
	s.active[l.act] = moved
	s.lanes[moved].act = l.act
	s.active = s.active[:last]
	l.act = -1
}

// take marks a queued job started; its lane is compacted at the pass's
// end.
func (s *Simulator) take(j *job) {
	j.queued = false
	li := j.usage.lane
	if l := &s.lanes[li]; !l.dirty {
		l.dirty = true
		s.dirtyLanes = append(s.dirtyLanes, li)
	}
}

// compactLanes drops the taken jobs from every lane that lost one.
func (s *Simulator) compactLanes() {
	for _, li := range s.dirtyLanes {
		l := &s.lanes[li]
		w := 0
		for i := range l.ent {
			if l.ent[i].j.queued {
				l.ent[w] = l.ent[i]
				w++
			}
		}
		clear(l.ent[w:])
		l.ent = l.ent[:w]
		l.dirty = false
		if w == 0 {
			s.deactivate(l)
		}
	}
	s.dirtyLanes = s.dirtyLanes[:0]
}

// laneBest finds lane li's best entry the pass has not visited and writes
// it to h; false when every entry has been visited. Each exact key it
// computes is one priority refresh.
func (s *Simulator) laneBest(li int32, h *laneHead) bool {
	l := &s.lanes[li]
	tNs := s.passT
	bi := -1
	var best int64
	var bestF float64
	for i := int(l.cur); i < len(l.ent); i++ {
		e := &l.ent[i]
		if bi >= 0 {
			if s.slope == 0 || e.a+s.passA+s.eps < bestF {
				break // nothing from here on can reach the best
			}
			if b := &l.ent[bi]; e.static == b.static && e.elig == b.elig {
				continue // the best's key and a later seq: it cannot win
			}
		}
		k := e.static + s.prio.Age(tNs-e.elig)
		s.refreshes++
		if l.popped && (k > l.lastKey || k == l.lastKey && e.seq <= l.lastSeq) {
			if i == int(l.cur) {
				l.cur++
			}
			continue // visited
		}
		if bi < 0 || k > best || k == best && e.seq < l.ent[bi].seq {
			bi, best, bestF = i, k, float64(k)
		}
	}
	if bi < 0 {
		return false
	}
	*h = laneHead{prio: best + l.fair, seq: l.ent[bi].seq, lane: li, idx: int32(bi)}
	return true
}

// buildHeads seeds the merge heap with every lane's best.
func (s *Simulator) buildHeads() {
	s.heads = s.heads[:0]
	for _, li := range s.active {
		var h laneHead
		if s.laneBest(li, &h) {
			s.heads = append(s.heads, h)
		}
	}
	for i := len(s.heads)/2 - 1; i >= 0; i-- {
		s.headSiftDown(i)
	}
}

func (s *Simulator) headSiftDown(i int) {
	h := s.heads
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		best := l
		if r := l + 1; r < n && headBefore(&h[r], &h[l]) {
			best = r
		}
		if !headBefore(&h[best], &h[i]) {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

// popHead yields the highest-priority unvisited pending job and replaces
// its lane's head with the lane's next best.
func (s *Simulator) popHead() *job {
	h := &s.heads[0]
	l := &s.lanes[h.lane]
	j := l.ent[h.idx].j
	l.lastKey, l.lastSeq, l.popped = h.prio-l.fair, h.seq, true
	if h.idx == l.cur {
		l.cur++
	}
	s.pops++
	if !s.laneBest(h.lane, h) {
		last := len(s.heads) - 1
		s.heads[0] = s.heads[last]
		s.heads = s.heads[:last]
	}
	s.headSiftDown(0)
	return j
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
