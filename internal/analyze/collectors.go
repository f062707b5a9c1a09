package analyze

import (
	"context"
	"sort"
	"time"

	"slurmsight/internal/obs"
	"slurmsight/internal/slurm"
)

// observedFields is every slurm field some collector's Observe reads —
// through the record's helpers too: IsStep reads JobID, Backfilled reads
// Flags, Year and WaitTime read Submit and Start.
var observedFields = []string{
	"JobID", "User", "Submit", "Start", "End", "Elapsed", "Timelimit",
	"NNodes", "State", "Flags", "Comment",
}

// ObservedFields names the record fields a Bundle reads of each record it
// observes, so a producer that decodes records column by column can leave
// the rest zero. The caller must not modify the slice. A collector that
// starts reading another field adds it here;
// TestCollectorColumnsCoverObserve fails until it does.
func ObservedFields() []string { return observedFields }

// Collect drains a record stream into a fresh Bundle — the
// figure-on-demand path: one scan produces every figure's aggregation.
// bucket sets the timeline resolution (≤ 0 defaults to one hour).
func Collect(seq slurm.RecordSeq, bucket time.Duration) (*Bundle, error) {
	return CollectCtx(context.Background(), seq, bucket)
}

// CollectCtx is Collect under a request context: when ctx carries an
// active obs span, the pass reports itself as an "analyze-collect"
// child span carrying the observed row count — the serving plane's
// per-request attribution for figure recomputation cost. The pass looks
// at ctx every cancelCheckRows rows and stops with its error once it is
// done.
func CollectCtx(ctx context.Context, seq slurm.RecordSeq, bucket time.Duration) (*Bundle, error) {
	return collectInto(ctx, seq, NewBundle(bucket))
}

// RecollectCtx is CollectCtx into prev, a bundle of the same stream a
// few appends ago: prev is emptied in place — every sample list emptied
// with its head's storage kept (samples.reset), every map cleared — and
// refilled, so a re-collect allocates only where the stream has outgrown
// what prev held. It returns prev. On error prev holds part of the
// stream and must not be read; the caller drops it.
func RecollectCtx(ctx context.Context, seq slurm.RecordSeq, prev *Bundle) (*Bundle, error) {
	prev.reset()
	return collectInto(ctx, seq, prev)
}

// cancelCheckRows is how many rows a collect observes between looks at
// its context.
const cancelCheckRows = 1 << 12

func collectInto(ctx context.Context, seq slurm.RecordSeq, b *Bundle) (*Bundle, error) {
	sp := obs.SpanFromContext(ctx).Child("analyze-collect")
	var rows int64
	var err error
	for r, rerr := range seq {
		if rerr != nil {
			err = rerr
			break
		}
		if rows%cancelCheckRows == 0 {
			if err = ctx.Err(); err != nil {
				break
			}
		}
		rows++
		b.Observe(r)
	}
	if sp != nil {
		sp.SetAttrInt("rows", rows)
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End()
	}
	if err != nil {
		return nil, err
	}
	return b, nil
}

// VolumeCollector folds the Figure 1 per-year job/step counts.
type VolumeCollector struct {
	byYear map[int]*VolumeByYear
}

// NewVolumeCollector returns an empty Figure 1 collector.
func NewVolumeCollector() *VolumeCollector {
	return &VolumeCollector{byYear: map[int]*VolumeByYear{}}
}

// Observe implements Collector over the full record mix (jobs + steps).
func (c *VolumeCollector) Observe(r *slurm.Record) {
	y := r.Year()
	v, ok := c.byYear[y]
	if !ok {
		v = &VolumeByYear{Year: y}
		c.byYear[y] = v
	}
	if r.IsStep() {
		v.Steps++
	} else {
		v.Jobs++
	}
}

// Merge folds another collector's counts into this one.
func (c *VolumeCollector) Merge(o *VolumeCollector) {
	for y, ov := range o.byYear {
		v, ok := c.byYear[y]
		if !ok {
			v = &VolumeByYear{Year: y}
			c.byYear[y] = v
		}
		v.Jobs += ov.Jobs
		v.Steps += ov.Steps
	}
}

// Result returns the per-year volumes in chronological order.
func (c *VolumeCollector) Result() []VolumeByYear {
	out := make([]VolumeByYear, 0, len(c.byYear))
	for _, v := range c.byYear {
		out = append(out, *v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Year < out[j].Year })
	return out
}

// ScaleCollector folds the Figure 3/7 nodes-versus-elapsed scatter.
type ScaleCollector struct {
	points samples[NodesElapsedPoint]
}

// NewScaleCollector returns an empty Figure 3/7 collector.
func NewScaleCollector() *ScaleCollector { return &ScaleCollector{} }

// Observe implements Collector; steps and never-started jobs are skipped.
func (c *ScaleCollector) Observe(r *slurm.Record) {
	if r.IsStep() || r.Start.IsZero() || r.Elapsed <= 0 {
		return
	}
	c.points.add(NodesElapsedPoint{
		Nodes:      r.NNodes,
		ElapsedSec: r.Elapsed.Seconds(),
		State:      r.State,
	})
}

// Merge appends another collector's points, preserving their order.
func (c *ScaleCollector) Merge(o *ScaleCollector) { c.points.merge(&o.points) }

// Result returns the scatter points in observation order. The caller
// must not modify the slice.
func (c *ScaleCollector) Result() []NodesElapsedPoint { return c.points.all() }

// WaitCollector folds the Figure 4 queue-wait scatter.
type WaitCollector struct {
	points samples[WaitPoint]
}

// NewWaitCollector returns an empty Figure 4 collector.
func NewWaitCollector() *WaitCollector { return &WaitCollector{} }

// Observe implements Collector; steps and never-started jobs are skipped.
func (c *WaitCollector) Observe(r *slurm.Record) {
	if r.IsStep() {
		return
	}
	w, ok := r.WaitTime()
	if !ok {
		return
	}
	c.points.add(WaitPoint{Submit: r.Submit, WaitSec: w.Seconds(), State: r.State})
}

// Merge appends another collector's points, preserving their order.
func (c *WaitCollector) Merge(o *WaitCollector) { c.points.merge(&o.points) }

// Result returns the wait points in observation order. The caller must
// not modify the slice.
func (c *WaitCollector) Result() []WaitPoint { return c.points.all() }

// UserStatesCollector folds the Figure 5/8 per-user terminal-state mix.
type UserStatesCollector struct {
	byUser map[string]*UserStates
}

// NewUserStatesCollector returns an empty Figure 5/8 collector.
func NewUserStatesCollector() *UserStatesCollector {
	return &UserStatesCollector{byUser: map[string]*UserStates{}}
}

// Observe implements Collector; steps are skipped.
func (c *UserStatesCollector) Observe(r *slurm.Record) {
	if r.IsStep() {
		return
	}
	u, ok := c.byUser[r.User]
	if !ok {
		u = &UserStates{User: r.User, Counts: map[slurm.State]int{}}
		c.byUser[r.User] = u
	}
	u.Counts[r.State]++
	u.Total++
}

// Merge folds another collector's per-user counts into this one.
func (c *UserStatesCollector) Merge(o *UserStatesCollector) {
	for user, ou := range o.byUser {
		u, ok := c.byUser[user]
		if !ok {
			u = &UserStates{User: user, Counts: map[slurm.State]int{}}
			c.byUser[user] = u
		}
		for st, n := range ou.Counts {
			u.Counts[st] += n
		}
		u.Total += ou.Total
	}
}

// Result returns users sorted by job count descending (ties by name);
// topN ≤ 0 keeps every user.
func (c *UserStatesCollector) Result(topN int) []UserStates {
	out := make([]UserStates, 0, len(c.byUser))
	for _, u := range c.byUser {
		out = append(out, *u)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].User < out[j].User
	})
	if topN > 0 && len(out) > topN {
		out = out[:topN]
	}
	return out
}

// BackfillCollector folds the Figure 6/9 requested-versus-actual scatter.
type BackfillCollector struct {
	points samples[BackfillPoint]
}

// NewBackfillCollector returns an empty Figure 6/9 collector.
func NewBackfillCollector() *BackfillCollector { return &BackfillCollector{} }

// Observe implements Collector; steps, never-started jobs, and jobs
// without a walltime request are skipped.
func (c *BackfillCollector) Observe(r *slurm.Record) {
	if r.IsStep() || r.Start.IsZero() || r.Timelimit <= 0 {
		return
	}
	c.points.add(BackfillPoint{
		RequestedSec: r.Timelimit.Seconds(),
		ActualSec:    r.Elapsed.Seconds(),
		Backfilled:   r.Backfilled(),
		State:        r.State,
	})
}

// Merge appends another collector's points, preserving their order.
func (c *BackfillCollector) Merge(o *BackfillCollector) { c.points.merge(&o.points) }

// Result returns the scatter points in observation order. The caller
// must not modify the slice.
func (c *BackfillCollector) Result() []BackfillPoint { return c.points.all() }

// nodeSeconds sums nodes·duration exactly, as whole node-seconds and
// the node-nanoseconds short of the next one. An integer sum does not
// depend on the order it is added in, so a total merged from chunk shards
// equals one pass's at every ingest width; it becomes hours once, when
// read. (One node·ns int64 would wrap after about eleven full-machine
// Frontier days.)
type nodeSeconds struct{ sec, ns int64 } // ns in [0, 1e9)

func (s *nodeSeconds) add(nodes int64, d time.Duration) {
	s.merge(nodeSeconds{nodes * int64(d/time.Second), nodes * int64(d%time.Second)})
}

func (s *nodeSeconds) merge(o nodeSeconds) {
	const second = int64(time.Second)
	s.sec, s.ns = s.sec+o.sec, s.ns+o.ns
	carry := s.ns / second
	if s.ns%second < 0 {
		carry-- // floor, so a negative term borrows a whole second
	}
	s.sec, s.ns = s.sec+carry, s.ns-carry*second
}

func (s nodeSeconds) hours() float64 {
	return (float64(s.sec) + float64(s.ns)/float64(time.Second)) / 3600
}

// ReclaimableCollector sums nodes·(requested − actual) over started jobs —
// the capacity a perfect walltime predictor would hand back to the
// scheduler, grounding the paper's time-reclamation recommendation.
type ReclaimableCollector struct {
	total nodeSeconds
}

// NewReclaimableCollector returns an empty reclaimable-hours collector.
func NewReclaimableCollector() *ReclaimableCollector { return &ReclaimableCollector{} }

// Observe implements Collector; steps and never-started jobs are skipped.
func (c *ReclaimableCollector) Observe(r *slurm.Record) {
	if r.IsStep() || r.Start.IsZero() {
		return
	}
	if slack := r.WalltimeSlack(); slack > 0 {
		c.total.add(r.NNodes, slack)
	}
}

// Merge adds another collector's partial sum.
func (c *ReclaimableCollector) Merge(o *ReclaimableCollector) { c.total.merge(o.total) }

// Result returns nodes·(requested − actual) summed over started jobs.
func (c *ReclaimableCollector) Result() float64 { return c.total.hours() }

// ClassCollector folds the per-workload-class breakdown — the "who
// actually uses the machine, and how well" table behind the figures.
type ClassCollector struct {
	byClass map[string]*classAcc
	block   int // sample block length of new accumulators; 0 is sampleBlock
}

type classAcc struct {
	jobs      int
	nodeHours nodeSeconds
	waits     samples[float64]
	nodes     samples[float64]
	ratios    samples[float64]
	bad       int
	backfill  int
	started   int
}

// NewClassCollector returns an empty per-class collector.
func NewClassCollector() *ClassCollector {
	return &ClassCollector{byClass: map[string]*classAcc{}}
}

// Observe implements Collector; steps are skipped.
func (c *ClassCollector) Observe(r *slurm.Record) {
	if r.IsStep() {
		return
	}
	class := r.Comment
	if class == "" {
		class = "(untagged)"
	}
	a := c.acc(class)
	a.jobs++
	a.nodes.add(float64(r.NNodes))
	switch r.State {
	case slurm.StateFailed, slurm.StateCancelled, slurm.StateNodeFail, slurm.StateOutOfMemory:
		a.bad++
	}
	if r.Start.IsZero() {
		return
	}
	a.started++
	a.nodeHours.add(r.NNodes, r.Elapsed)
	if w, ok := r.WaitTime(); ok {
		a.waits.add(w.Seconds())
	}
	if r.Timelimit > 0 {
		a.ratios.add(float64(r.Elapsed) / float64(r.Timelimit))
	}
	if r.Backfilled() {
		a.backfill++
	}
}

// Merge folds another collector's accumulators into this one, appending
// sample slices in the other's observation order.
func (c *ClassCollector) Merge(o *ClassCollector) {
	for class, oa := range o.byClass {
		a := c.acc(class)
		a.jobs += oa.jobs
		a.nodeHours.merge(oa.nodeHours)
		a.waits.merge(&oa.waits)
		a.nodes.merge(&oa.nodes)
		a.ratios.merge(&oa.ratios)
		a.bad += oa.bad
		a.backfill += oa.backfill
		a.started += oa.started
	}
}

// acc returns class's accumulator, creating it on first use.
func (c *ClassCollector) acc(class string) *classAcc {
	a, ok := c.byClass[class]
	if !ok {
		a = &classAcc{}
		a.waits.block, a.nodes.block, a.ratios.block = c.block, c.block, c.block
		c.byClass[class] = a
	}
	return a
}

// Result returns class summaries sorted by consumed node-hours
// descending (ties by class name).
func (c *ClassCollector) Result() []ClassSummary {
	out := make([]ClassSummary, 0, len(c.byClass))
	for class, a := range c.byClass {
		if a.jobs == 0 {
			continue // emptied by a re-collect and not observed since
		}
		out = append(out, a.summary(class))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].NodeHours != out[j].NodeHours {
			return out[i].NodeHours > out[j].NodeHours
		}
		return out[i].Class < out[j].Class
	})
	return out
}

// Bundle groups one collector per figure plus the summary computations,
// so a single pass over a record stream produces everything the
// workflow's analysis stage needs. Bundles built from independent
// partitions of a trace (e.g. per-period curate streams) combine with
// Merge; merging in partition order keeps point ordering identical to a
// one-pass scan of the concatenated partitions.
type Bundle struct {
	Records int64 // records observed (jobs + steps)
	Jobs    int64 // job-level records observed

	Volume   *VolumeCollector
	Scale    *ScaleCollector
	Waits    *WaitCollector
	Users    *UserStatesCollector
	Backfill *BackfillCollector
	Reclaim  *ReclaimableCollector
	Timeline *TimelineCollector
	Classes  *ClassCollector
}

// NewBundle returns a bundle with every collector empty. bucket sets the
// timeline resolution (≤ 0 defaults to one hour).
func NewBundle(bucket time.Duration) *Bundle {
	return &Bundle{
		Volume:   NewVolumeCollector(),
		Scale:    NewScaleCollector(),
		Waits:    NewWaitCollector(),
		Users:    NewUserStatesCollector(),
		Backfill: NewBackfillCollector(),
		Reclaim:  NewReclaimableCollector(),
		Timeline: NewTimelineCollector(bucket),
		Classes:  NewClassCollector(),
	}
}

// reset empties b in place for RecollectCtx: counts and sums zeroed,
// maps cleared, and every sample list emptied with its head's storage
// kept for the next pass. A class accumulator stays in its map, zeroed,
// and ClassCollector.Result skips it until a job lands in it.
func (b *Bundle) reset() {
	b.Records, b.Jobs = 0, 0
	clear(b.Volume.byYear)
	b.Scale.points.reset()
	b.Waits.points.reset()
	clear(b.Users.byUser)
	b.Backfill.points.reset()
	b.Reclaim.total = nodeSeconds{}
	b.Timeline.reset()
	for _, a := range b.Classes.byClass {
		a.waits.reset()
		a.nodes.reset()
		a.ratios.reset()
		*a = classAcc{waits: a.waits, nodes: a.nodes, ratios: a.ratios}
	}
}

// Observe feeds one record to every collector.
func (b *Bundle) Observe(r *slurm.Record) {
	b.Records++
	if !r.IsStep() {
		b.Jobs++
	}
	b.Volume.Observe(r)
	b.Scale.Observe(r)
	b.Waits.Observe(r)
	b.Users.Observe(r)
	b.Backfill.Observe(r)
	b.Reclaim.Observe(r)
	b.Timeline.Observe(r)
	b.Classes.Observe(r)
}

// Merge folds another bundle into this one.
func (b *Bundle) Merge(o *Bundle) { b.mergeAll(o) }

// mergeAll folds bs into b in order, after growing every sample list's
// head once to the length the fold ends at, so each sample is copied
// once and b is left with no blocks.
func (b *Bundle) mergeAll(bs ...*Bundle) {
	b.reserve(bs)
	for _, o := range bs {
		b.Records += o.Records
		b.Jobs += o.Jobs
		b.Volume.Merge(o.Volume)
		b.Scale.Merge(o.Scale)
		b.Waits.Merge(o.Waits)
		b.Users.Merge(o.Users)
		b.Backfill.Merge(o.Backfill)
		b.Reclaim.Merge(o.Reclaim)
		b.Timeline.Merge(o.Timeline)
		b.Classes.Merge(o.Classes)
	}
}

// reserve gives every sample list of b room in its head for what bs
// hold: the point collectors, the timeline edges and each class's waits,
// nodes and ratios (samples.grow).
func (b *Bundle) reserve(bs []*Bundle) {
	var scale, waits, backfill, edges int
	classes := map[string]*[3]int{}
	for _, o := range bs {
		scale += o.Scale.points.len()
		waits += o.Waits.points.len()
		backfill += o.Backfill.points.len()
		edges += o.Timeline.edges.len()
		for class, oa := range o.Classes.byClass {
			n := classes[class]
			if n == nil {
				n = new([3]int)
				classes[class] = n
			}
			n[0] += oa.waits.len()
			n[1] += oa.nodes.len()
			n[2] += oa.ratios.len()
		}
	}
	b.Scale.points.grow(scale)
	b.Waits.points.grow(waits)
	b.Backfill.points.grow(backfill)
	b.Timeline.edges.grow(edges)
	for class, n := range classes {
		a := b.Classes.acc(class)
		a.waits.grow(n[0])
		a.nodes.grow(n[1])
		a.ratios.grow(n[2])
	}
}
