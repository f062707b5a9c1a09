package sched

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"slurmsight/internal/cluster"
	"slurmsight/internal/obs"
	"slurmsight/internal/slurm"
	"slurmsight/internal/tracegen"
)

// job is the simulator's view of one submission; req is the caller's.
// There is one per request, in one arena, so its size is the run's memory:
// every instant is int64 Unix nanoseconds (converted back to time.Time, in
// the location of the request's Submit, only when an outcome or record is
// read), the job ID is derived from seq at emission, and the small fields
// are fixed-width ints. TestJobAndEventLayout pins it at 160 bytes or less.
type job struct {
	req     *tracegen.Request
	usage   *userUsage // this job's user's fair-share accumulator
	res     *resPool
	depPred *job // afterok predecessor
	depNext *job // the job held on this one: its chain's next position

	seq      int64 // submission order, tie-breaker and id basis
	priority int64
	// Scheduling-invariant priority inputs, cached at submission so the
	// per-pass recompute only touches the time-varying age and fair-share
	// terms: static = Base + size term + QoS weight.
	static int64

	// Instants, Unix ns.
	eligible int64 // the age input: submit, or the latest release or eviction
	start    int64
	end      int64
	limitEnd int64 // start + walltime limit, the running-heap key
	cancelAt int64 // noCancel when no cancel is planned

	lost   time.Duration // runtime discarded by preemptions
	waited time.Duration // eligible-but-pending time across scheduling segments

	cores    int32  // allocation size in cores (the scheduling unit)
	runIdx   int32  // position in s.running, -1 when absent
	gen      uint32 // bumped on preemption to invalidate stale end events
	restarts int32
	state    uint8 // a slurm.State; see State
	reason   reason

	canPreempt  bool
	preemptible bool
	started     bool
	finished    bool
	held        bool // waiting on a dependency
	backfill    bool
	queued      bool // in its user's pending lane
}

// noCancel is the cancelAt of a job with no planned cancel: no end comes
// after it, so terminalOutcome's cancel check never fires.
const noCancel = math.MaxInt64

// State is the job's state as the slurm type.
func (j *job) State() slurm.State { return slurm.State(j.state) }

func (j *job) setState(st slurm.State) { j.state = uint8(st) }

// at converts a simulated instant back to a time.Time in the location of
// the job's submission.
func (j *job) at(ns int64) time.Time { return time.Unix(0, ns).In(j.req.Submit.Location()) }

// firstID is the job ID of the first submission; the rest follow in
// submission order.
const firstID = 100000

// id is the job's sacct ID: firstID + seq, with the array index of an
// array task.
func (j *job) id() slurm.JobID {
	id := slurm.NewJobID(firstID + j.seq)
	if j.req.ArrayID != 0 {
		id.Array = int64(j.req.ArrayIndex)
	}
	return id
}

// reason is a one-byte code for the Reason a job's record carries when the
// scheduler, not the queue, decided it.
type reason uint8

const (
	reasonNone reason = iota
	reasonDependency
	reasonPreempted
)

var reasonNames = [...]string{
	reasonNone:       "",
	reasonDependency: "DependencyNeverSatisfied",
	reasonPreempted:  "Preempted",
}

// inRange reports whether int64 Unix nanoseconds hold t: 1678 to 2262.
func inRange(t time.Time) bool { return time.Unix(0, t.UnixNano()).Equal(t) }

// checkInstants refuses a request with an instant the simulator cannot
// hold: its submit, the end of its walltime limit, or its planned cancel.
func checkInstants(idx int, r *tracegen.Request) error {
	check := func(what string, t time.Time) error {
		if inRange(t) {
			return nil
		}
		return fmt.Errorf("sched: request %d: %s %s is outside what Unix nanoseconds hold (1678 to 2262)", idx, what, t)
	}
	if err := check("submit", r.Submit); err != nil {
		return err
	}
	if err := check("submit+timelimit", r.Submit.Add(r.Timelimit)); err != nil {
		return err
	}
	if r.CancelAfter > 0 {
		return check("cancel", r.Submit.Add(r.CancelAfter))
	}
	return nil
}

// nodeEquivalents converts a job's core allocation into fractional nodes
// for capacity accounting; whole-node jobs come out at their node count.
func (s *Simulator) nodeEquivalents(j *job) float64 {
	return float64(j.cores) / float64(s.cfg.System.CoresPerNode)
}

// resPool tracks one advance reservation's carved capacity.
type resPool struct {
	def     Reservation
	startNs int64 // def.Start, Unix ns
	endNs   int64 // def.End, Unix ns
	active  bool
	free    int // currently free carved cores
	carved  int // cores carved out of the general pool so far
}

// Event kinds. At equal timestamps, cancellations of pending jobs beat
// everything, node releases precede submissions and reservation
// transitions, and the window-start carve runs last so it sees every node
// freed at that instant. The scheduling pass runs after the whole
// timestamp drains.
const (
	evCancel eventKind = iota
	evEnd
	evSubmit
	evResEnd
	evResStart
)

type eventKind uint8

// event is one entry of the event queue, which holds about two per job:
// 40 bytes, pinned by TestJobAndEventLayout.
type event struct {
	t    int64 // Unix ns
	j    *job
	res  *resPool
	seq  int64
	gen  uint32
	kind eventKind
}

// userUsage tracks exponentially decayed node-seconds per user for the
// fair-share factor, as of asOfNs (Unix ns). lane is the user's pending
// lane in s.lanes.
type userUsage struct {
	value  float64
	asOfNs int64
	lane   int32
}

// Simulator executes submissions against a cluster model.
type Simulator struct {
	cfg       Config
	freeCores int
	npending  int    // pending jobs: the lanes' and this pass's victims
	running   []*job // min-heap on (limitEnd, seq)
	usage     map[string]*userUsage
	qosDefs   map[string]cluster.QOS
	events    []event
	seq       int64
	now       int64 // Unix ns
	stats     RunStats
	resPools  []*resPool
	resByName map[string]*resPool

	// schedDirty is cleared when a pass runs and set by any event that
	// frees capacity, adds pending work, or moves a reservation window;
	// no-op events (stale ends, cancels of started jobs, held submits)
	// leave it unset and the pass is skipped.
	schedDirty bool
	// lastPassT is the latest drained timestamp with pending work (Unix
	// ns): the moment the legacy pass would last have rewritten every
	// pending job's priority (see the evCancel handler).
	lastPassT int64
	ran       bool // Run is single-shot: stats, usage and seq are the run's

	// The pending queue (queue.go): a lane per user, the lanes holding
	// pending jobs, and the pass's merge heap of lane bests.
	lanes      []lane
	active     []int32 // indices of the non-empty lanes, in no order
	heads      []laneHead
	dirtyLanes []int32 // lanes that lost a job this pass
	// The lane key's parameters: slope bounds the age term's growth per ns
	// (PriorityPolicy.AgeSlope), origin is the first submission, and
	// epsBase the magnitudes ε scales with besides the pass's own term.
	slope   float64
	origin  int64
	epsBase float64
	// This pass's instant, slope·(passT − origin) and ε.
	passT       int64
	passA, eps  float64
	pops        int64 // jobs taken from the merge heap, over the run
	refreshes   int64 // exact priorities computed, over the run
	decayDt     int64 // the last decay step and its Exp2 factor
	decayFactor float64

	// Reusable pass-time buffers.
	appended  []*job // preemption victims requeued mid-pass, FIFO
	appCursor int
	resBuf    []laneHead // reservation-tagged subset
	shadowBuf []*job     // scratch copy of the running heap
	victimBuf []*job

	halfF float64 // FairShareHalfLife as float ns, the decay divisor

	// The pluggable policy composition, resolved once in New from the
	// config's policy names. The default triple (multifactor priority,
	// EASY backfill, pool selection) reproduces the pre-refactor
	// simulator bit for bit.
	prio PriorityPolicy
	bf   BackfillPolicy
	sel  NodeSelector

	// Instruments resolved once in New from cfg.Metrics; all nil (free
	// no-ops) when metrics are off, keeping the event loop unmetered.
	mEvents         *obs.Counter
	mPasses         *obs.Counter
	mBackfillAtt    *obs.Counter
	mBackfillStarts *obs.Counter
	mPreemptAtt     *obs.Counter
	mPreemptEvict   *obs.Counter
	mQueueDepth     *obs.Gauge
	mRunning        *obs.Gauge
	// mDepthSum adds the pending depth at every pass: over mPasses it is
	// the mean depth a pass worked on. mPops adds the heap pops a pass made,
	// mRefreshes the exact priorities the run computed.
	mDepthSum  *obs.Counter
	mPops      *obs.Counter
	mRefreshes *obs.Counter
	clk        *phaseClock // nil when unmetered: no clock reads
}

// New builds a simulator; the configuration is validated.
func New(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Simulator{
		cfg:        cfg,
		freeCores:  int(cfg.System.TotalCores()),
		usage:      map[string]*userUsage{},
		qosDefs:    make(map[string]cluster.QOS, len(cfg.System.QOSLevels)),
		resByName:  map[string]*resPool{},
		schedDirty: true,
		halfF:      float64(cfg.FairShareHalfLife),
	}
	var err error
	if s.prio, err = PriorityByName(cfg.Priority, &cfg); err != nil {
		return nil, err
	}
	s.slope = s.prio.AgeSlope()
	if s.bf, err = BackfillByName(cfg.Backfill); err != nil {
		return nil, err
	}
	if s.sel, err = SelectorByName(cfg.NodeSelect); err != nil {
		return nil, err
	}
	s.sel.Reset(cfg.System)
	if cfg.Metrics != nil {
		s.mEvents = cfg.Metrics.Counter("sched_events_processed_total")
		s.mPasses = cfg.Metrics.Counter("sched_passes_total")
		s.mBackfillAtt = cfg.Metrics.Counter("sched_backfill_attempts_total")
		s.mBackfillStarts = cfg.Metrics.Counter("sched_backfill_starts_total")
		s.mPreemptAtt = cfg.Metrics.Counter("sched_preempt_attempts_total")
		s.mPreemptEvict = cfg.Metrics.Counter("sched_preempt_evictions_total")
		s.mQueueDepth = cfg.Metrics.Gauge("sched_queue_depth")
		s.mRunning = cfg.Metrics.Gauge("sched_jobs_running")
		s.mDepthSum = cfg.Metrics.Counter("sched_pending_depth_sum")
		s.mPops = cfg.Metrics.Counter("sched_pending_pops_total")
		s.mRefreshes = cfg.Metrics.Counter("sched_priority_refreshes_total")
		s.clk = &phaseClock{}
		if _, pool := s.sel.(poolSelector); !pool {
			s.sel = timedSelector{s.sel, s.clk}
		}
	}
	for _, q := range cfg.System.QOSLevels {
		s.qosDefs[q.Name] = q
	}
	for _, def := range cfg.Reservations {
		rp := &resPool{def: def, startNs: def.Start.UnixNano(), endNs: def.End.UnixNano()}
		s.resPools = append(s.resPools, rp)
		s.resByName[def.Name] = rp
	}
	return s, nil
}

// runScratch is the storage a Run works in and is done with when it
// returns, sized by the request count: the submit order, the event heap
// and the lanes' entry array and headers. Run takes one from scratches and
// grows a slice only when its capacity is short, and puts it back before
// it returns, so a process's runs after its first reuse it. A Run that
// fails drops its scratch.
type runScratch struct {
	order  []int
	events []event
	ents   []laneEntry
	lanes  []lane
}

var scratches = sync.Pool{New: func() any { return new(runScratch) }}

// recycle puts sc back. The event heap and the lane compaction zero every
// slot they vacate, but a job still pending when the events drain leaves
// its lane entry behind: the entries are cleared, so the pool keeps no
// pointer into a run's jobs.
func (sc *runScratch) recycle() {
	clear(sc.ents[:cap(sc.ents)])
	scratches.Put(sc)
}

// arenas holds job arenas for Run to reuse. An arena outlives its Run,
// since the Result reads it; Result.Release gives it back, so a caller
// that scores a run and drops it (the tournament) leaves the arena to the
// next run, and a Result that is kept keeps only its arena.
var arenas = sync.Pool{New: func() any { return new([]job) }}

// reuse returns s emptied, or a new slice when s cannot hold n elements.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// Result is what a run leaves behind: the statistics, and the finished
// jobs with what record emission reads of the configuration. It holds no
// records: Outcomes reads the jobs and Records builds rows as it yields
// them (records.go), both through the request slice Run was given.
type Result struct {
	Stats RunStats

	arena        *[]job // from arenas; nil once released
	jobs         []job  // submission order: *arena, one job per request
	emitSteps    bool
	seed         int64
	sys          *cluster.System
	reservations []Reservation
	arrayBase    map[int64]int64 // tracegen array group → base job id
	leadNode     string          // the one-node list every batch step carries
}

// Options tune what a result emits.
type Options struct {
	// EmitSteps makes Result.Records yield step rows (batch, extern, and
	// numbered srun steps) behind each job row. Disable for very large runs
	// that need job-level analytics only; Outcome.Steps counts them anyway.
	EmitSteps bool
}

// chainKey identifies a dependency chain position. Each position holds
// one job, so a job has at most one dependent: the next position.
type chainKey struct {
	chain int64
	pos   int
}

// Run executes the submissions and returns the finished run. The requests
// may arrive in any order; they are processed by submit time, never written,
// and must not change while the Result is in use. A request whose submit,
// walltime-limit end or planned cancel falls outside 1678–2262, where Unix
// nanoseconds are defined, is an error. A Simulator runs once: its
// statistics, usage and queues are the run's, so a second Run is an error.
func (s *Simulator) Run(reqs []tracegen.Request, opts Options) (*Result, error) {
	if s.ran {
		return nil, fmt.Errorf("sched: simulator already ran; build a new one")
	}
	s.ran = true
	if len(reqs) == 0 {
		return nil, fmt.Errorf("sched: no requests")
	}
	s.clk.start()
	pa := arenas.Get().(*[]job)
	*pa = reuse(*pa, len(reqs))[:len(reqs)] // every job, in one array
	arena := *pa
	arrayBase := map[int64]int64{} // tracegen array group → base job id
	sc := scratches.Get().(*runScratch)
	sc.order = reuse(sc.order, len(reqs))[:len(reqs)]
	order := sc.order
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return reqs[order[a]].Submit.Before(reqs[order[b]].Submit)
	})
	s.events = reuse(sc.events, 2*len(reqs)+2*len(s.resPools))
	byChain := map[chainKey]*job{}
	var laneSize []int32 // requests per user, in lane order
	staticMax := 0.0
	for n, idx := range order {
		r := &reqs[idx]
		if r.Nodes <= 0 || r.Nodes > s.cfg.System.Nodes {
			return nil, fmt.Errorf("sched: request %d wants %d nodes of %d", idx, r.Nodes, s.cfg.System.Nodes)
		}
		if r.Timelimit <= 0 {
			return nil, fmt.Errorf("sched: request %d has no timelimit", idx)
		}
		if err := checkInstants(idx, r); err != nil {
			return nil, err
		}
		cores := r.Nodes * s.cfg.System.CoresPerNode
		if r.Cores > 0 {
			if r.Nodes != 1 {
				return nil, fmt.Errorf("sched: request %d mixes a multi-node allocation with a core count", idx)
			}
			if r.Cores > s.cfg.System.CoresPerNode {
				return nil, fmt.Errorf("sched: request %d wants %d cores of a %d-core node", idx, r.Cores, s.cfg.System.CoresPerNode)
			}
			if s.cfg.EnableNodeSharing {
				cores = r.Cores
			}
			// Without node sharing, a sub-node request occupies the
			// whole node (cores already equals one node's worth).
		}
		submit := r.Submit.UnixNano()
		j := &arena[n]
		*j = job{seq: int64(n), req: r, cores: int32(cores), state: uint8(slurm.StatePending),
			eligible: submit, cancelAt: noCancel, runIdx: -1}
		sizef := float64(j.cores) / float64(s.cfg.System.TotalCores())
		var qosW int64
		if q, ok := s.qosDefs[r.QOS]; ok {
			qosW = q.PriorityWeight
			j.canPreempt = q.CanPreempt
			j.preemptible = q.Preemptible
		}
		j.static = s.prio.Static(sizef, qosW)
		staticMax = max(staticMax, math.Abs(float64(j.static)))
		u, ok := s.usage[r.User]
		if !ok {
			u = &userUsage{asOfNs: submit, lane: int32(len(laneSize))}
			s.usage[r.User] = u
			laneSize = append(laneSize, 0)
		}
		laneSize[u.lane]++
		j.usage = u
		if r.ArrayID != 0 {
			if _, ok := arrayBase[r.ArrayID]; !ok {
				arrayBase[r.ArrayID] = firstID + j.seq
			}
		}
		if r.CancelAfter > 0 {
			j.cancelAt = submit + int64(r.CancelAfter)
		}
		if r.Reservation != "" {
			rp, ok := s.resByName[r.Reservation]
			if !ok {
				return nil, fmt.Errorf("sched: request %d names unknown reservation %q", idx, r.Reservation)
			}
			if r.Nodes > rp.def.Nodes {
				return nil, fmt.Errorf("sched: request %d exceeds reservation %q capacity", idx, r.Reservation)
			}
			j.res = rp
		}
		if r.Chain != 0 {
			byChain[chainKey{r.Chain, r.ChainPos}] = j
		}
		s.pushEvent(event{t: submit, kind: evSubmit, j: j, seq: s.nextSeq()})
		if j.cancelAt != noCancel {
			s.pushEvent(event{t: j.cancelAt, kind: evCancel, j: j, seq: s.nextSeq()})
		}
	}
	// Wire dependency chains: each position waits on the previous one.
	for key, j := range byChain {
		if key.pos == 0 {
			continue
		}
		pred, ok := byChain[chainKey{key.chain, key.pos - 1}]
		if !ok {
			return nil, fmt.Errorf("sched: chain %d missing position %d", key.chain, key.pos-1)
		}
		j.depPred = pred
		pred.depNext = j
	}
	for _, rp := range s.resPools {
		s.pushEvent(event{t: rp.startNs, kind: evResStart, res: rp, seq: s.nextSeq()})
		s.pushEvent(event{t: rp.endNs, kind: evResEnd, res: rp, seq: s.nextSeq()})
	}
	s.carveLanes(sc, len(arena), laneSize)

	first := arena[0].eligible // the first submission
	s.origin = first
	s.epsBase = staticMax + float64(s.prio.Age(math.MaxInt64))
	for len(s.events) > 0 {
		e := s.popEvent()
		t := e.t
		s.now = t
		s.handle(e)
		// Drain every event at this instant before scheduling.
		for len(s.events) > 0 && s.events[0].t == t {
			s.handle(s.popEvent())
		}
		s.schedule(t)
		if s.npending > 0 {
			s.lastPassT = t
		}
	}
	// Final gauge readings: a pass may have been skipped since the last
	// capacity change, so publish the drained state explicitly.
	s.mQueueDepth.Set(int64(s.npending))
	s.mRunning.Set(int64(len(s.running)))

	// Anything still pending at drain time never had resources; that
	// cannot happen with a consistent request stream, but guard anyway.
	// Skipped passes defer priority writes, so its record carries the
	// value the last pass would have written.
	for _, li := range s.active {
		l := &s.lanes[li]
		fair := s.prio.Fair(s.decayUser(l.usage, s.now))
		for i := range l.ent {
			e := &l.ent[i]
			j := e.j
			j.priority = e.static + s.prio.Age(s.now-e.elig) + fair
			s.refreshes++
			j.queued = false
			j.finished = true
			j.setState(slurm.StateCancelled)
			j.end = s.now
			s.stats.JobsCancelled++
			s.stats.NeverStarted++
		}
	}
	s.lanes, s.active = nil, nil
	s.npending = 0
	// Held jobs whose predecessors never resolved are likewise cancelled.
	for i := range arena {
		if j := &arena[i]; !j.finished && j.held {
			j.finished = true
			j.setState(slurm.StateCancelled)
			j.end = s.now
			j.reason = reasonDependency
			s.stats.JobsCancelled++
			s.stats.NeverStarted++
		}
	}

	// The trace span runs from first submission to the last job activity;
	// no-op cancel events beyond it do not count.
	last := first
	for i := range arena {
		last = max(last, arena[i].end)
	}
	s.stats.NodeSecondsCap = float64(s.cfg.System.Nodes) * time.Duration(last-first).Seconds()

	s.mRefreshes.Add(s.refreshes)
	s.clk.publish(s.cfg.Metrics)
	sc.events, s.events = s.events, nil // keep the heap if a preemption grew it
	sc.recycle()
	return &Result{
		Stats: s.stats, arena: pa, jobs: arena, emitSteps: opts.EmitSteps,
		seed: s.cfg.Seed, sys: s.cfg.System, reservations: s.cfg.Reservations,
		arrayBase: arrayBase, leadNode: nodeListFor(s.cfg.System.Name, 1),
	}, nil
}

func (s *Simulator) nextSeq() int64 { s.seq++; return s.seq }

func (s *Simulator) handle(e event) {
	s.mEvents.Inc()
	switch e.kind {
	case evSubmit:
		j := e.j
		if j.finished {
			return // cancelled at the same instant
		}
		if j.depPred != nil && !j.depPred.finished {
			j.held = true
			return
		}
		if j.depPred != nil && j.depPred.State() != slurm.StateCompleted {
			s.cancelForDependency(j, e.t)
			return
		}
		s.pendAdd(j)
		s.npending++
		s.schedDirty = true
	case evCancel:
		j := e.j
		if j.started || j.finished {
			return // started jobs carry the cancel in their end event
		}
		j.finished = true
		j.setState(slurm.StateCancelled)
		j.end = e.t
		s.stats.JobsCancelled++
		s.stats.NeverStarted++
		if j.queued {
			// The legacy pass rewrote every pending priority at each
			// drained timestamp; with skipped passes the record must
			// still carry the value from the last pass before the
			// cancel (cancellations sort first, so that pass is at an
			// earlier timestamp and usage has not decayed past it). A
			// job pending now was pending when an earlier instant
			// drained, so lastPassT is set.
			j.priority = s.priorityAt(j, s.lastPassT)
			s.pendRemove(j)
			s.npending--
			s.schedDirty = true
		}
		// The dependent of a cancelled job never runs.
		s.cancelForDependency(j.depNext, e.t)
	case evEnd:
		j := e.j
		if j.finished || e.gen != j.gen || !j.started {
			return // stale event from before a preemption
		}
		j.finished = true
		s.releaseNodes(j)
		s.runRemove(j)
		s.accrueUsage(j)
		s.countOutcome(j)
		s.resolveDependent(j, e.t)
		s.schedDirty = true
	case evResStart:
		rp := e.res
		rp.active = true
		s.refillReservations()
		s.schedDirty = true
	case evResEnd:
		rp := e.res
		rp.active = false
		s.freeCores += rp.free
		rp.free, rp.carved = 0, 0
		// Pending jobs that targeted the window fall back to the general
		// pool.
		for _, li := range s.active {
			for _, e := range s.lanes[li].ent {
				if e.j.res == rp {
					e.j.res = nil
				}
			}
		}
		s.schedDirty = true
	}
}

// releaseNodes returns a finished job's nodes to its pool.
func (s *Simulator) releaseNodes(j *job) {
	if j.res != nil && j.res.active {
		j.res.free += int(j.cores)
		return
	}
	s.freeCores += int(j.cores)
	s.sel.Release(j)
	s.refillReservations()
}

// refillReservations tops up active reservations from the general pool,
// modelling the drain into a reservation as nodes free up.
func (s *Simulator) refillReservations() {
	for _, rp := range s.resPools {
		target := rp.def.Nodes * s.cfg.System.CoresPerNode
		if !rp.active || rp.carved >= target {
			continue
		}
		take := target - rp.carved
		if take > s.freeCores {
			take = s.freeCores
		}
		if take <= 0 {
			continue
		}
		s.freeCores -= take
		rp.carved += take
		rp.free += take
	}
}

// resolveDependent releases or cancels the job held on j.
func (s *Simulator) resolveDependent(j *job, tNs int64) {
	d := j.depNext
	if d == nil || d.finished {
		return
	}
	if j.State() != slurm.StateCompleted {
		s.cancelForDependency(d, tNs)
		return
	}
	if d.held {
		d.held = false
		d.eligible = tNs
		s.pendAdd(d)
		s.npending++
		s.schedDirty = true
	}
}

// cancelForDependency terminally cancels a job whose upstream failed, and
// the rest of its chain behind it; nil is a no-op. Such jobs are held or
// not yet submitted, never in the pending set.
func (s *Simulator) cancelForDependency(j *job, tNs int64) {
	for ; j != nil && !j.finished; j = j.depNext {
		j.finished = true
		j.held = false
		j.setState(slurm.StateCancelled)
		j.reason = reasonDependency
		j.end = tNs
		s.stats.JobsCancelled++
		s.stats.NeverStarted++
		s.stats.DependencyCancelled++
	}
}

func (s *Simulator) countOutcome(j *job) {
	elapsed := time.Duration(j.end - j.start)
	s.stats.NodeSecondsBusy += s.nodeEquivalents(j) * elapsed.Seconds()
	// j.waited accumulates start−eligible per scheduling segment, so a
	// preempted job's earlier run time is never mistaken for queue wait
	// and a dependent's held time never counts (see RunStats.TotalWait).
	wait := j.waited
	s.stats.TotalWait = satAddDuration(s.stats.TotalWait, wait)
	if wait > s.stats.MaxWait {
		s.stats.MaxWait = wait
	}
	switch j.State() {
	case slurm.StateCompleted:
		s.stats.JobsCompleted++
	case slurm.StateFailed:
		s.stats.JobsFailed++
	case slurm.StateCancelled:
		s.stats.JobsCancelled++
	case slurm.StateTimeout:
		s.stats.JobsTimeout++
	case slurm.StateNodeFail:
		s.stats.JobsNodeFail++
	case slurm.StateOutOfMemory:
		s.stats.JobsOOM++
	}
	if j.backfill {
		s.stats.Backfilled++
	}
}

// decayUser steps a user's usage decay forward to tNs (Unix ns) and
// returns the value. The ns difference equals Time.Sub exactly, so the
// float stepping matches the Time-based form bit for bit. The Exp2 factor
// is a pure function of the step, and the users a pass decays mostly
// share the last pass's step, so the last one is kept.
func (s *Simulator) decayUser(u *userUsage, tNs int64) float64 {
	dt := tNs - u.asOfNs
	if dt <= 0 {
		return u.value
	}
	if dt != s.decayDt {
		s.decayDt, s.decayFactor = dt, math.Exp2(-(float64(dt) / s.halfF))
	}
	u.value *= s.decayFactor
	u.asOfNs = tNs
	return u.value
}

// decayedUsage returns the user's usage decayed to tNs.
func (s *Simulator) decayedUsage(user string, tNs int64) float64 {
	u, ok := s.usage[user]
	if !ok {
		return 0
	}
	return s.decayUser(u, tNs)
}

func (s *Simulator) accrueUsage(j *job) {
	u, ok := s.usage[j.req.User]
	if !ok {
		u = &userUsage{asOfNs: j.end}
		s.usage[j.req.User] = u
	}
	s.decayUser(u, j.end)
	u.value += s.nodeEquivalents(j) * time.Duration(j.end-j.start).Seconds()
}

// priorityAt computes a pending job's priority from scratch through the
// priority policy. Age accrues from eligibility (held dependents only age
// once released). The scheduling pass uses the decomposed fast path
// (the entry's static term + Age + its lane's Fair); this reference form
// and the fast path agree exactly: each term is truncated to int64 by the
// policy separately, and int64 addition is associative.
func (s *Simulator) priorityAt(j *job, tNs int64) int64 {
	sizef := float64(j.cores) / float64(s.cfg.System.TotalCores())
	var qosW int64
	if q, ok := s.qosDefs[j.req.QOS]; ok {
		qosW = q.PriorityWeight
	}
	return s.prio.Static(sizef, qosW) +
		s.prio.Age(tNs-j.eligible) +
		s.prio.Fair(s.decayedUsage(j.req.User, tNs))
}

// reprioritize opens a pass at tNs: one fair term per non-empty lane,
// every lane's cursor rewound, and the lane bound's pass term and ε (see
// queue.go). ε is 2^-44 of the magnitudes the bound's float rounding
// scales with — the static terms, the saturated age term and
// slope·(tNs − origin) — hundreds of times the few ulps a bound loses.
func (s *Simulator) reprioritize(tNs int64) {
	s.passT = tNs
	s.passA = s.slope * float64(tNs-s.origin)
	if s.slope > 0 {
		s.eps = 0x1p-44 * (s.epsBase + s.passA)
	}
	for _, li := range s.active {
		l := &s.lanes[li]
		l.fair = s.prio.Fair(s.decayUser(l.usage, tNs))
		l.cur, l.popped = 0, false
	}
}

// schedule runs the reservation pass, the main priority loop (with urgent
// preemption), and the configured backfill policy's pass at tNs.
func (s *Simulator) schedule(tNs int64) {
	if s.npending == 0 {
		return
	}
	if !s.schedDirty {
		// Nothing this timestamp freed capacity or added work, so the
		// pass would start nothing. The legacy pass still stepped each
		// pending user's fair-share decay here; keep that float
		// stepping identical so later terms match bit for bit.
		for _, li := range s.active {
			s.decayUser(s.lanes[li].usage, tNs)
		}
		return
	}
	s.schedDirty = false
	s.mPasses.Inc()
	s.mDepthSum.Add(int64(s.npending))
	s.clk.enter(phaseReprioritize)
	s.reprioritize(tNs)
	s.clk.enter(phaseMainPass)
	if len(s.resPools) > 0 {
		s.reservationPass(tNs)
	}
	s.buildHeads()
	pops := s.pops
	head := s.mainPass(tNs)
	if head != nil && s.npending > 1 {
		s.clk.enter(phaseBackfill)
		s.bf.Pass(s, head, tNs)
		s.clk.enter(phaseMainPass)
	}
	s.mPops.Add(s.pops - pops)
	s.finishPass()
	s.clk.enter(phaseEvents)
	s.mQueueDepth.Set(int64(s.npending))
	s.mRunning.Set(int64(len(s.running)))
}

// reservationPass starts reservation-tagged jobs that fit their window, in
// priority order over the tagged subset (their relative order in the old
// full sort). The jobs it starts leave their lanes before the main pass,
// so every job the main pass meets in a lane is still queued.
func (s *Simulator) reservationPass(tNs int64) {
	s.resBuf = s.resBuf[:0]
	for _, li := range s.active {
		l := &s.lanes[li]
		for i := range l.ent {
			if e := &l.ent[i]; e.j.res != nil {
				s.refreshes++
				s.resBuf = append(s.resBuf, laneHead{
					prio: e.static + s.prio.Age(tNs-e.elig) + l.fair,
					seq:  e.seq, lane: li, idx: int32(i),
				})
			}
		}
	}
	slices.SortFunc(s.resBuf, func(a, b laneHead) int {
		if headBefore(&a, &b) {
			return -1
		}
		return 1
	})
	for _, h := range s.resBuf {
		j := s.lanes[h.lane].ent[h.idx].j
		if s.canStartInReservation(j, tNs) {
			s.startJob(j, tNs, false)
		}
	}
	s.compactLanes()
}

// nextPending yields jobs in scheduling order: the lanes' merge heap
// first, then preemption victims requeued during this pass in eviction
// order (they joined the tail of the old sorted slice mid-iteration).
func (s *Simulator) nextPending() *job {
	if len(s.heads) > 0 {
		return s.popHead()
	}
	if s.appCursor < len(s.appended) {
		j := s.appended[s.appCursor]
		s.appCursor++
		return j
	}
	return nil
}

// mainPass starts jobs in priority order until the head does not fit,
// and returns that blocking head (nil when everything started).
// Reservation-tagged jobs wait for their window without blocking.
func (s *Simulator) mainPass(tNs int64) *job {
	for {
		j := s.nextPending()
		if j == nil {
			return nil
		}
		if j.res != nil {
			continue
		}
		if int(j.cores) <= s.freeCores && s.sel.Fits(j) {
			s.startJob(j, tNs, false)
			continue
		}
		// Urgent QoS may evict preemptible work instead of queueing.
		if j.canPreempt && s.tryPreempt(j, tNs) && s.sel.Fits(j) {
			s.startJob(j, tNs, false)
			continue
		}
		return j
	}
}

// finishPass drops the started jobs from their lanes, queues the victims
// the pass evicted and did not restart, and resets the pass buffers. A job
// the pass looked at and left is still in its lane.
func (s *Simulator) finishPass() {
	s.compactLanes()
	for _, j := range s.appended {
		if !j.started && !j.queued {
			s.pendAdd(j)
		}
	}
	s.heads = s.heads[:0]
	s.appended = s.appended[:0]
	s.appCursor = 0
}

// canStartInReservation reports whether a tagged job fits its window now.
func (s *Simulator) canStartInReservation(j *job, tNs int64) bool {
	rp := j.res
	if !rp.active || int(j.cores) > rp.free {
		return false
	}
	return tNs+int64(j.req.Timelimit) <= rp.endNs
}

// tryPreempt evicts preemptible running jobs until the urgent job fits.
// Victims are requeued from scratch (youngest first, minimising lost
// work). Returns false — and evicts nothing — when even evicting every
// candidate would not free enough nodes.
func (s *Simulator) tryPreempt(urgent *job, tNs int64) bool {
	s.mPreemptAtt.Inc()
	needed := int(urgent.cores) - s.freeCores
	if needed <= 0 {
		return true
	}
	victims := s.victimBuf[:0]
	for _, j := range s.running {
		if j.res == nil && j.preemptible {
			victims = append(victims, j)
		}
	}
	slices.SortFunc(victims, func(a, b *job) int {
		if a.start != b.start {
			return cmp.Compare(b.start, a.start)
		}
		return cmp.Compare(a.seq, b.seq)
	})
	s.victimBuf = victims
	freed := 0
	cut := 0
	for _, v := range victims {
		if freed >= needed {
			break
		}
		freed += int(v.cores)
		cut++
	}
	if freed < needed {
		return false
	}
	for _, v := range victims[:cut] {
		s.evict(v, tNs)
	}
	return true
}

// evict requeues a running preemptible job. The victim joins the FIFO
// tail of this pass (it re-enters consideration after every job already
// queued) and its lane at pass end.
func (s *Simulator) evict(v *job, tNs int64) {
	s.mPreemptEvict.Inc()
	v.gen++ // invalidate the scheduled end event
	s.freeCores += int(v.cores)
	s.sel.Release(v)
	s.runRemove(v)
	ran := time.Duration(tNs - v.start)
	v.lost += ran
	v.restarts++
	v.started = false
	v.backfill = false
	v.setState(slurm.StatePending)
	v.eligible = tNs
	v.reason = reasonPreempted
	s.appended = append(s.appended, v)
	s.npending++
	s.schedDirty = true
	s.stats.Preemptions++
	s.stats.PreemptedLost += ran
	// The partial run still consumed the machine.
	s.stats.NodeSecondsBusy += s.nodeEquivalents(v) * ran.Seconds()
}

// shadowTime computes when the head job could start if running jobs end
// at their limits, and how many nodes beyond the head's need will be free
// then. Reservation-pool jobs are excluded: their nodes return to the
// reservation, not the general pool. Releases are consumed in limit order
// from a scratch copy of the running heap (a copy of a heap is a heap),
// popping only until the head fits instead of sorting every running job.
func (s *Simulator) shadowTime(head *job, tNs int64) (int64, int) {
	if cap(s.shadowBuf) < len(s.running) {
		s.shadowBuf = make([]*job, len(s.running))
	}
	buf := s.shadowBuf[:len(s.running)]
	copy(buf, s.running)
	free := s.freeCores
	for len(buf) > 0 {
		var j *job
		j, buf = shadowPop(buf)
		if j.res != nil {
			continue
		}
		at := j.limitEnd
		if at < tNs {
			at = tNs // defensive; a running job's limit cannot precede now
		}
		free += int(j.cores)
		if free >= int(head.cores) {
			return at, free - int(head.cores)
		}
	}
	// Head can never start under current limits (should not happen when
	// requests respect the system size); treat as unbounded shadow.
	return tNs + int64(1000000*time.Hour), int(s.cfg.System.TotalCores())
}

// satAddDuration sums non-negative durations, saturating at the int64
// bound: very large contended traces can accumulate more than ~292 years
// of total wait, and a clamped aggregate beats a silently negative one.
func satAddDuration(a, b time.Duration) time.Duration {
	c := a + b
	if c < a {
		return time.Duration(math.MaxInt64)
	}
	return c
}

// startJob dispatches a job at tNs and schedules its end event.
func (s *Simulator) startJob(j *job, tNs int64, backfill bool) {
	if j.queued {
		s.take(j)
	}
	j.started = true
	j.backfill = backfill
	if backfill {
		s.mBackfillStarts.Inc()
	}
	j.start = tNs
	j.waited += time.Duration(tNs - j.eligible)
	j.priority = s.priorityAt(j, tNs)
	j.limitEnd = tNs + int64(j.req.Timelimit)
	s.npending--
	if j.res != nil && j.res.active {
		j.res.free -= int(j.cores)
		s.stats.ReservationStarts++
	} else {
		j.res = nil // window closed between sort and start
		s.freeCores -= int(j.cores)
		s.sel.Place(j)
	}
	s.runAdd(j)

	end, state := s.terminalOutcome(j, tNs)
	j.end = end
	j.setState(state)
	s.pushEvent(event{t: end, kind: evEnd, j: j, gen: j.gen, seq: s.nextSeq()})
}

// terminalOutcome resolves when and how a job started at start ends.
func (s *Simulator) terminalOutcome(j *job, start int64) (int64, slurm.State) {
	r := j.req
	run := r.TrueRuntime
	state := r.Outcome
	switch r.Outcome {
	case slurm.StateFailed, slurm.StateNodeFail, slurm.StateOutOfMemory:
		run = time.Duration(float64(r.TrueRuntime) * r.FailFrac)
		if run < time.Second {
			run = time.Second
		}
	case slurm.StateCancelled:
		// Resolved against cancelAt below; if the cancel moment never
		// arrives inside the run window the job completes instead.
		state = slurm.StateCompleted
	case slurm.StateTimeout:
		// Enforced by the limit check below.
		state = slurm.StateCompleted
	}
	if run > r.Timelimit {
		run, state = r.Timelimit, slurm.StateTimeout
	}
	end := start + int64(run)
	if j.cancelAt > start && j.cancelAt < end {
		end, state = j.cancelAt, slurm.StateCancelled
	}
	return end, state
}
