package sched

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"slurmsight/internal/slurm"
	"slurmsight/internal/tracegen"
)

// The reference scheduler: the simulator's rules restated as plainly as
// they can be, with none of its machinery. The queue is a slice sorted
// afresh at every pass, the running set a slice scanned linearly, the event
// queue a sorted slice, the shadow time and the conservative profile are
// recomputed from scratch, and every instant is a time.Time. It reads only
// a Config and the requests, and is compared with Run job for job.

// Reference event kinds, in the order they drain at one instant.
const (
	refCancel = iota
	refEnd
	refSubmit
	refResEnd
	refResStart
)

type refEvent struct {
	t    time.Time
	kind int
	seq  int64
	j    *refJob
	res  *refRes
	gen  int
}

type refUser struct {
	value float64
	asOf  time.Time
}

type refRes struct {
	def          Reservation
	active       bool
	free, carved int
}

type refJob struct {
	seq         int64
	req         *tracegen.Request
	cores       int
	static      int64
	canPreempt  bool
	preemptible bool
	user        *refUser
	res         *refRes
	pred        *refJob
	next        []*refJob
	cancelAt    time.Time // zero when none

	pending, held, started, finished, backfill bool

	prio       int64
	gen        int
	eligible   time.Time
	start, end time.Time
	state      slurm.State
	nodes      []int // a tracking selector's placement
}

func (j *refJob) limitEnd() time.Time { return j.start.Add(j.req.Timelimit) }

// refSim is one run of the reference scheduler. backfills,
// evictions and resStarts count what a run exercised; violations collects
// broken backfill contracts.
type refSim struct {
	cfg     Config
	prio    PriorityPolicy
	free    int
	used    []int // cores in use per node, for firstfit and bestfit
	pending []*refJob
	running []*refJob
	events  []refEvent
	evSeq   int64
	res     []*refRes
	dirty   bool
	now     time.Time

	// The jobs of the current pass in scheduling order, then the
	// victims it evicted, in eviction order.
	order        []*refJob
	cursor, vcur int
	victims      []*refJob

	backfills, evictions, resStarts int
	violations                      []string
}

func refEventBefore(a, b *refEvent) bool {
	if !a.t.Equal(b.t) {
		return a.t.Before(b.t)
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.seq < b.seq
}

func (r *refSim) push(e refEvent) {
	r.evSeq++
	e.seq = r.evSeq
	i := sort.Search(len(r.events), func(k int) bool { return refEventBefore(&e, &r.events[k]) })
	r.events = slices.Insert(r.events, i, e)
}

// refRun simulates the requests under cfg and returns the jobs in
// submission order.
func refRun(t *testing.T, cfg Config, reqs []tracegen.Request) ([]*refJob, *refSim) {
	t.Helper()
	prio, err := PriorityByName(cfg.Priority, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys := cfg.System
	r := &refSim{cfg: cfg, prio: prio, free: int(sys.TotalCores()), used: make([]int, sys.Nodes), dirty: true}
	for _, def := range cfg.Reservations {
		r.res = append(r.res, &refRes{def: def})
	}
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return reqs[order[a]].Submit.Before(reqs[order[b]].Submit) })
	users := map[string]*refUser{}
	chains := map[[2]int64]*refJob{}
	jobs := make([]*refJob, len(reqs))
	for n, idx := range order {
		q := &reqs[idx]
		j := &refJob{seq: int64(n), req: q, cores: q.Nodes * sys.CoresPerNode, eligible: q.Submit, state: slurm.StatePending}
		if q.Cores > 0 && cfg.EnableNodeSharing {
			j.cores = q.Cores
		}
		var qosW int64
		for _, lvl := range sys.QOSLevels {
			if lvl.Name == q.QOS {
				qosW, j.canPreempt, j.preemptible = lvl.PriorityWeight, lvl.CanPreempt, lvl.Preemptible
			}
		}
		j.static = prio.Static(float64(j.cores)/float64(sys.TotalCores()), qosW)
		if users[q.User] == nil {
			users[q.User] = &refUser{asOf: q.Submit}
		}
		j.user = users[q.User]
		for k, def := range cfg.Reservations {
			if def.Name == q.Reservation {
				j.res = r.res[k]
			}
		}
		if q.Chain != 0 {
			chains[[2]int64{q.Chain, int64(q.ChainPos)}] = j
		}
		jobs[n] = j
		r.push(refEvent{t: q.Submit, kind: refSubmit, j: j})
		if q.CancelAfter > 0 {
			j.cancelAt = q.Submit.Add(q.CancelAfter)
			r.push(refEvent{t: j.cancelAt, kind: refCancel, j: j})
		}
	}
	for key, j := range chains {
		if key[1] > 0 {
			j.pred = chains[[2]int64{key[0], key[1] - 1}]
			j.pred.next = append(j.pred.next, j)
		}
	}
	for _, rp := range r.res {
		r.push(refEvent{t: rp.def.Start, kind: refResStart, res: rp})
		r.push(refEvent{t: rp.def.End, kind: refResEnd, res: rp})
	}

	for len(r.events) > 0 {
		r.now = r.events[0].t
		for len(r.events) > 0 && r.events[0].t.Equal(r.now) {
			e := r.events[0]
			r.events = r.events[1:]
			r.handle(e)
		}
		r.schedule(r.now)
	}
	for _, j := range jobs {
		if j.pending || (j.held && !j.finished) {
			j.finished, j.state, j.end = true, slurm.StateCancelled, r.now
		}
	}
	return jobs, r
}

func (r *refSim) handle(e refEvent) {
	j := e.j
	switch e.kind {
	case refSubmit:
		switch {
		case j.finished:
		case j.pred != nil && !j.pred.finished:
			j.held = true
		case j.pred != nil && j.pred.state != slurm.StateCompleted:
			r.depCancel(j, e.t)
		default:
			r.addPending(j)
		}
	case refCancel:
		if j.started || j.finished {
			return
		}
		j.finished, j.state, j.end = true, slurm.StateCancelled, e.t
		if j.pending {
			r.removePending(j)
			r.dirty = true
		}
		for _, d := range j.next {
			r.depCancel(d, e.t)
		}
	case refEnd:
		if j.finished || e.gen != j.gen || !j.started {
			return
		}
		j.finished = true
		r.release(j)
		r.running = slices.DeleteFunc(r.running, func(k *refJob) bool { return k == j })
		u := j.user
		r.decay(u, j.end)
		u.value += float64(j.cores) / float64(r.cfg.System.CoresPerNode) * j.end.Sub(j.start).Seconds()
		for _, d := range j.next {
			switch {
			case d.finished:
			case j.state != slurm.StateCompleted:
				r.depCancel(d, e.t)
			case d.held:
				d.held, d.eligible = false, e.t
				r.addPending(d)
			}
		}
		r.dirty = true
	case refResStart:
		e.res.active = true
		r.refill()
		r.dirty = true
	case refResEnd:
		rp := e.res
		rp.active = false
		r.free += rp.free
		rp.free, rp.carved = 0, 0
		for _, k := range r.pending {
			if k.res == rp {
				k.res = nil
			}
		}
		r.dirty = true
	}
}

func (r *refSim) addPending(j *refJob) {
	j.pending = true
	r.pending = append(r.pending, j)
	r.dirty = true
}

func (r *refSim) removePending(j *refJob) {
	j.pending = false
	r.pending = slices.DeleteFunc(r.pending, func(k *refJob) bool { return k == j })
}

func (r *refSim) depCancel(j *refJob, t time.Time) {
	if j.finished {
		return
	}
	j.finished, j.held, j.state, j.end = true, false, slurm.StateCancelled, t
	for _, d := range j.next {
		r.depCancel(d, t)
	}
}

func (r *refSim) release(j *refJob) {
	if j.res != nil && j.res.active {
		j.res.free += j.cores
		return
	}
	r.free += j.cores
	r.unplace(j)
	r.refill()
}

func (r *refSim) refill() {
	for _, rp := range r.res {
		take := min(rp.def.Nodes*r.cfg.System.CoresPerNode-rp.carved, r.free)
		if rp.active && take > 0 {
			r.free -= take
			rp.carved += take
			rp.free += take
		}
	}
}

func (r *refSim) decay(u *refUser, t time.Time) {
	if dt := t.Sub(u.asOf); dt > 0 {
		u.value *= math.Exp2(-(float64(dt) / float64(r.cfg.FairShareHalfLife)))
		u.asOf = t
	}
}

// Node placement: the pool selector accepts whatever the core pool does;
// firstfit and bestfit track cores per node.

func (r *refSim) tracking() bool {
	return r.cfg.NodeSelect == "firstfit" || r.cfg.NodeSelect == "bestfit"
}

func (r *refSim) pickNode(cores int) int {
	best := -1
	for n, u := range r.used {
		if u+cores > r.cfg.System.CoresPerNode {
			continue
		}
		if r.cfg.NodeSelect == "firstfit" {
			return n
		}
		if best < 0 || u > r.used[best] {
			best = n
		}
	}
	return best
}

func (r *refSim) fits(j *refJob) bool {
	if !r.tracking() {
		return true
	}
	if j.cores < r.cfg.System.CoresPerNode {
		return r.pickNode(j.cores) >= 0
	}
	idle := 0
	for _, u := range r.used {
		if u == 0 {
			idle++
		}
	}
	return j.cores/r.cfg.System.CoresPerNode <= idle
}

func (r *refSim) place(j *refJob) {
	if !r.tracking() {
		return
	}
	if j.cores < r.cfg.System.CoresPerNode {
		if n := r.pickNode(j.cores); n >= 0 {
			r.used[n] += j.cores
			j.nodes = []int{n}
		}
		return
	}
	for n := range r.used {
		if len(j.nodes) < j.cores/r.cfg.System.CoresPerNode && r.used[n] == 0 {
			r.used[n] = r.cfg.System.CoresPerNode
			j.nodes = append(j.nodes, n)
		}
	}
}

func (r *refSim) unplace(j *refJob) {
	for _, n := range j.nodes {
		if j.cores < r.cfg.System.CoresPerNode {
			r.used[n] -= j.cores
		} else {
			r.used[n] = 0
		}
	}
	j.nodes = nil
}

// before is the queue order: priority descending, then submission order.
func refBefore(a, b *refJob) int {
	if a.prio != b.prio {
		if a.prio > b.prio {
			return -1
		}
		return 1
	}
	return int(a.seq - b.seq)
}

// next yields the pass's jobs in scheduling order, then its victims.
func (r *refSim) next() *refJob {
	if r.cursor < len(r.order) {
		r.cursor++
		return r.order[r.cursor-1]
	}
	if r.vcur < len(r.victims) {
		r.vcur++
		return r.victims[r.vcur-1]
	}
	return nil
}

func (r *refSim) schedule(t time.Time) {
	if len(r.pending) == 0 {
		return
	}
	for _, j := range r.pending {
		r.decay(j.user, t)
	}
	if !r.dirty {
		return
	}
	r.dirty = false
	for _, j := range r.pending {
		j.prio = j.static + r.prio.Age(int64(t.Sub(j.eligible))) + r.prio.Fair(j.user.value)
	}
	r.order = slices.SortedFunc(slices.Values(r.pending), refBefore)
	for _, j := range r.order {
		rp := j.res
		if rp != nil && rp.active && j.cores <= rp.free && !t.Add(j.req.Timelimit).After(rp.def.End) {
			r.start(j, t, false)
			r.resStarts++
		}
	}
	r.order = slices.SortedFunc(slices.Values(r.pending), refBefore)
	r.cursor, r.vcur, r.victims = 0, 0, nil
	var head *refJob
	for head == nil {
		j := r.next()
		switch {
		case j == nil:
			return
		case j.res != nil:
		case j.cores <= r.free && r.fits(j):
			r.start(j, t, false)
		case j.canPreempt && r.preempt(j, t) && r.fits(j):
			r.start(j, t, false)
		default:
			head = j
		}
	}
	if len(r.pending) < 2 {
		return
	}
	switch r.cfg.Backfill {
	case "", "easy":
		r.easy(head, t)
	case "conservative":
		r.conservative(head, t)
	}
}

func (r *refSim) start(j *refJob, t time.Time, backfill bool) {
	r.removePending(j)
	j.started, j.backfill, j.start = true, backfill, t
	if backfill {
		r.backfills++
	}
	r.decay(j.user, t)
	if j.res != nil && j.res.active {
		j.res.free -= j.cores
	} else {
		j.res = nil
		r.free -= j.cores
		r.place(j)
	}
	r.running = append(r.running, j)

	q := j.req
	run, state := q.TrueRuntime, q.Outcome
	switch q.Outcome {
	case slurm.StateFailed, slurm.StateNodeFail, slurm.StateOutOfMemory:
		run = max(time.Duration(float64(q.TrueRuntime)*q.FailFrac), time.Second)
	case slurm.StateCancelled, slurm.StateTimeout:
		state = slurm.StateCompleted
	}
	j.end, j.state = t.Add(run), state
	if j.end.After(j.limitEnd()) {
		j.end, j.state = j.limitEnd(), slurm.StateTimeout
	}
	if !j.cancelAt.IsZero() && j.cancelAt.After(t) && j.cancelAt.Before(j.end) {
		j.end, j.state = j.cancelAt, slurm.StateCancelled
	}
	r.push(refEvent{t: j.end, kind: refEnd, j: j, gen: j.gen})
}

// preempt evicts the youngest preemptible jobs until the urgent one fits
// the pool, or evicts nothing when all of them would not be enough.
func (r *refSim) preempt(urgent *refJob, t time.Time) bool {
	needed := urgent.cores - r.free
	if needed <= 0 {
		return true
	}
	var cands []*refJob
	for _, j := range r.running {
		if j.res == nil && j.preemptible {
			cands = append(cands, j)
		}
	}
	slices.SortFunc(cands, func(a, b *refJob) int {
		if !a.start.Equal(b.start) {
			return b.start.Compare(a.start)
		}
		return int(a.seq - b.seq)
	})
	freed, cut := 0, 0
	for ; cut < len(cands) && freed < needed; cut++ {
		freed += cands[cut].cores
	}
	if freed < needed {
		return false
	}
	for _, v := range cands[:cut] {
		v.gen++
		r.free += v.cores
		r.unplace(v)
		r.running = slices.DeleteFunc(r.running, func(k *refJob) bool { return k == v })
		v.started, v.backfill, v.state, v.eligible = false, false, slurm.StatePending, t
		r.victims = append(r.victims, v)
		r.addPending(v)
		r.evictions++
	}
	return true
}

// shadow is when head could start if every running job in the general
// pool ran to its limit, and how many cores beyond head's need are free
// then.
func (r *refSim) shadow(head *refJob, t time.Time) (time.Time, int) {
	var rel []*refJob
	for _, j := range r.running {
		if j.res == nil {
			rel = append(rel, j)
		}
	}
	slices.SortFunc(rel, func(a, b *refJob) int {
		if c := a.limitEnd().Compare(b.limitEnd()); c != 0 {
			return c
		}
		return int(a.seq - b.seq)
	})
	free := r.free
	for _, j := range rel {
		free += j.cores
		if free >= head.cores {
			if j.limitEnd().Before(t) {
				return t, free - head.cores
			}
			return j.limitEnd(), free - head.cores
		}
	}
	return t.Add(1000000 * time.Hour), int(r.cfg.System.TotalCores())
}

func (r *refSim) depth() int {
	if r.cfg.BackfillDepth > 0 {
		return r.cfg.BackfillDepth
	}
	return len(r.pending)
}

// easy starts a job out of order only if it ends by the head's shadow
// time or fits in the cores the head leaves spare then. Contract: no such
// start moves the head's shadow time later.
func (r *refSim) easy(head *refJob, t time.Time) {
	shadow, extra := r.shadow(head, t)
	for considered, depth := 0, r.depth(); considered < depth; {
		j := r.next()
		if j == nil {
			break
		}
		if j.res != nil {
			continue
		}
		considered++
		if j.cores > r.free || !r.fits(j) {
			continue
		}
		endsBy := t.Add(j.req.Timelimit)
		if fitsExtra := j.cores <= extra; !endsBy.After(shadow) || fitsExtra {
			r.start(j, t, true)
			if endsBy.After(shadow) {
				extra -= j.cores
			}
		}
	}
	if after, _ := r.shadow(head, t); after.After(shadow) {
		r.violations = append(r.violations, fmt.Sprintf("EASY at %v: head %d's shadow moved from %v to %v", t, head.seq, shadow, after))
	}
}

// refProfile is free general-pool cores over time: base now, plus each
// step at or before the instant asked about.
type refProfile struct {
	base  int
	steps []refStep
}

type refStep struct {
	t time.Time
	d int
}

func (r *refSim) profile(t time.Time) *refProfile {
	p := &refProfile{base: r.free}
	for _, j := range r.running {
		if j.res == nil {
			at := j.limitEnd()
			if at.Before(t) {
				at = t
			}
			p.steps = append(p.steps, refStep{at, j.cores})
		}
	}
	return p
}

func (p *refProfile) freeAt(x time.Time) int {
	f := p.base
	for _, s := range p.steps {
		if !s.t.After(x) {
			f += s.d
		}
	}
	return f
}

func (p *refProfile) reserve(at time.Time, cores int, dur time.Duration) {
	p.steps = append(p.steps, refStep{at, -cores}, refStep{at.Add(dur), cores})
}

// earliest tries every instant where availability changes, from t on,
// and returns the first that stays at cores or more for dur.
func (p *refProfile) earliest(t time.Time, cores int, dur time.Duration) (time.Time, bool) {
	cands := []time.Time{t}
	for _, s := range p.steps {
		cands = append(cands, s.t)
	}
	slices.SortFunc(cands, time.Time.Compare)
	for _, at := range cands {
		ok := !at.Before(t) && p.freeAt(at) >= cores
		for _, s := range p.steps {
			if ok && s.t.After(at) && s.t.Before(at.Add(dur)) {
				ok = p.freeAt(s.t) >= cores
			}
		}
		if ok {
			return at, true
		}
	}
	return time.Time{}, false
}

// conservative reserves the earliest slot of every job it examines and
// starts one now only if its slot is now. Contract: after the pass, every
// reservation it made for a job still waiting is still free, on a profile
// rebuilt from what is running.
func (r *refSim) conservative(head *refJob, t time.Time) {
	p := r.profile(t)
	type slot struct {
		at    time.Time
		cores int
		dur   time.Duration
	}
	var held []slot
	if at, ok := p.earliest(t, head.cores, head.req.Timelimit); ok {
		p.reserve(at, head.cores, head.req.Timelimit)
		held = append(held, slot{at, head.cores, head.req.Timelimit})
	}
	for considered, depth := 0, r.depth(); considered < depth; {
		j := r.next()
		if j == nil {
			break
		}
		if j.res != nil {
			continue
		}
		considered++
		at, ok := p.earliest(t, j.cores, j.req.Timelimit)
		if !ok {
			continue
		}
		p.reserve(at, j.cores, j.req.Timelimit)
		if at.Equal(t) && j.cores <= r.free && r.fits(j) {
			r.start(j, t, true)
		} else {
			held = append(held, slot{at, j.cores, j.req.Timelimit})
		}
	}
	after := r.profile(t)
	for _, s := range held {
		after.reserve(s.at, s.cores, s.dur)
	}
	for _, s := range after.steps {
		if f := after.freeAt(s.t); f < 0 {
			r.violations = append(r.violations, fmt.Sprintf("conservative at %v: reservations overcommitted by %d cores at %v", t, -f, s.t))
		}
	}
}

// TestReferenceSchedulerMatchesRun runs every composition over random
// workloads, with a reservation window half the time (and a quarter of the
// jobs that fit it tagged for it), through Run and through the reference
// scheduler, and requires the same start, end, state and backfill flag for
// every job, and both backfill contracts on every pass.
func TestReferenceSchedulerMatchesRun(t *testing.T) {
	seeds := 64
	if testing.Short() {
		seeds = 8
	}
	var backfills, evictions, resStarts int
	for _, c := range compositions() {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(5000); seed < 5000+int64(seeds); seed++ {
				sim, reqs, _ := randomWorkload(t, c, seed, seed%2 == 0)
				if len(reqs) == 0 {
					continue
				}
				if len(sim.cfg.Reservations) > 0 {
					window := sim.cfg.Reservations[0]
					for i := range reqs {
						if i%4 == 0 && reqs[i].Nodes <= window.Nodes {
							reqs[i].Reservation = window.Name
						}
					}
				}
				res, err := sim.Run(reqs, Options{})
				if err != nil {
					t.Fatal(err)
				}
				want, ref := refRun(t, sim.cfg, reqs)
				for _, v := range ref.violations {
					t.Errorf("seed %d: %s", seed, v)
				}
				backfills += ref.backfills
				evictions += ref.evictions
				resStarts += ref.resStarts
				i := 0
				for o := range res.Outcomes {
					w := want[i]
					var wantStart time.Time
					if w.started {
						wantStart = w.start
					}
					if o.Req != w.req || !o.Start.Equal(wantStart) || !o.End.Equal(w.end) ||
						!o.Eligible.Equal(w.eligible) || o.State != w.state || o.Backfilled != (w.started && w.backfill) {
						t.Fatalf("seed %d: job %d: Run gives start %v end %v eligible %v %v backfilled=%v; reference %v %v %v %v backfilled=%v",
							seed, i, o.Start, o.End, o.Eligible, o.State, o.Backfilled,
							wantStart, w.end, w.eligible, w.state, w.started && w.backfill)
					}
					i++
				}
				if i != len(want) {
					t.Fatalf("seed %d: %d outcomes for %d requests", seed, i, len(want))
				}
			}
		})
	}
	t.Logf("%d backfills, %d evictions, %d reservation starts", backfills, evictions, resStarts)
	if !testing.Short() && (backfills == 0 || evictions == 0 || resStarts == 0) {
		t.Errorf("the workloads exercised %d backfills, %d evictions and %d reservation starts: each must be above zero",
			backfills, evictions, resStarts)
	}
}

// TestReferenceSchedulerMatchesRunAtAgeEdges holds Run to the reference
// scheduler where the pending lanes' bound (queue.go) is tightest and its
// ties are thickest: age horizons from seconds, where nearly every age
// saturates, to the default two weeks; age weights from 0 to the largest
// an evolve round may set; no size term, so static terms tie; and every
// third submit moved to 0–4 s after its predecessor, so neighbouring ages
// truncate to equal terms. Every composition, job for job, with both
// backfill contracts on every pass.
func TestReferenceSchedulerMatchesRunAtAgeEdges(t *testing.T) {
	ageMaxes := []time.Duration{7 * time.Second, time.Minute, time.Hour, 14 * 24 * time.Hour}
	ageWeights := []int64{0, 1, 3, 300_000, 10_000_000}
	seeds := 4
	if testing.Short() {
		seeds = 1
	}
	for _, c := range compositions() {
		t.Run(c.name, func(t *testing.T) {
			seed := int64(7000)
			for _, ageMax := range ageMaxes {
				for _, w := range ageWeights {
					for range seeds {
						seed++
						sim, reqs, _ := randomWorkload(t, c, seed, seed%2 == 0)
						if len(reqs) == 0 {
							continue
						}
						cfg := sim.cfg
						cfg.AgeMax, cfg.AgeWeight, cfg.SizeWeight = ageMax, w, 0
						sim, err := New(cfg)
						if err != nil {
							t.Fatal(err)
						}
						crowdSubmits(reqs, seed)
						if len(cfg.Reservations) > 0 {
							window := cfg.Reservations[0]
							for i := range reqs {
								if i%4 == 0 && reqs[i].Nodes <= window.Nodes {
									reqs[i].Reservation = window.Name
								}
							}
						}
						label := fmt.Sprintf("AgeMax %v, AgeWeight %d, seed %d", ageMax, w, seed)
						matchReference(t, sim, reqs, label)
					}
				}
			}
		})
	}
}

// crowdSubmits moves every third submit, in submit order, to 0–4 s after
// its predecessor's.
func crowdSubmits(reqs []tracegen.Request, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	slices.SortStableFunc(reqs, func(a, b tracegen.Request) int { return a.Submit.Compare(b.Submit) })
	for i := 2; i < len(reqs); i += 3 {
		reqs[i].Submit = reqs[i-1].Submit.Add(time.Duration(rng.Intn(5)) * time.Second)
	}
}

// matchReference runs reqs through sim and through the reference
// scheduler, and requires the same start, end, eligibility, state and
// backfill flag for every job, and no broken backfill contract.
func matchReference(t *testing.T, sim *Simulator, reqs []tracegen.Request, label string) {
	t.Helper()
	res, err := sim.Run(reqs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, ref := refRun(t, sim.cfg, reqs)
	for _, v := range ref.violations {
		t.Errorf("%s: %s", label, v)
	}
	i := 0
	for o := range res.Outcomes {
		w := want[i]
		var wantStart time.Time
		if w.started {
			wantStart = w.start
		}
		if o.Req != w.req || !o.Start.Equal(wantStart) || !o.End.Equal(w.end) ||
			!o.Eligible.Equal(w.eligible) || o.State != w.state || o.Backfilled != (w.started && w.backfill) {
			t.Fatalf("%s: job %d: Run gives start %v end %v eligible %v %v backfilled=%v; reference %v %v %v %v backfilled=%v",
				label, i, o.Start, o.End, o.Eligible, o.State, o.Backfilled,
				wantStart, w.end, w.eligible, w.state, w.started && w.backfill)
		}
		i++
	}
	if i != len(want) {
		t.Fatalf("%s: %d outcomes for %d requests", label, i, len(want))
	}
}
