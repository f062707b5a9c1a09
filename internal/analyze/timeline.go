package analyze

import (
	"cmp"
	"slices"
	"time"

	"slurmsight/internal/slurm"
)

// TimelinePoint is one bucket of a system-load timeline.
type TimelinePoint struct {
	At         time.Time
	BusyNodes  float64 // node allocation averaged over the bucket
	QueueDepth float64 // pending jobs averaged over the bucket
	Started    int     // jobs dispatched in the bucket
	Submitted  int     // jobs submitted in the bucket
}

// tlEdge is one state-change event in the load reconstruction: 24 bytes,
// because the collector keeps two or three of them per job. The instant
// is kept as Unix seconds plus nanoseconds, which is exact for every
// time.Time (the zero time included) where Unix nanoseconds would wrap
// outside 1678–2262, and orders as time.Time does.
type tlEdge struct {
	sec   int64 // Unix seconds
	nodes int64 // ± allocation
	nsec  int32 // nanoseconds within sec
	kind  edgeKind
}

func newEdge(t time.Time, nodes int64, kind edgeKind) tlEdge {
	return tlEdge{sec: t.Unix(), nodes: nodes, nsec: int32(t.Nanosecond()), kind: kind}
}

// at returns the edge's instant.
func (e tlEdge) at() time.Time { return time.Unix(e.sec, int64(e.nsec)) }

// compareEdges orders edges by instant.
func compareEdges(a, b tlEdge) int {
	if c := cmp.Compare(a.sec, b.sec); c != 0 {
		return c
	}
	return cmp.Compare(a.nsec, b.nsec)
}

// edgeKind says what an edge does to the queue and which bucket counter
// it bumps.
type edgeKind uint8

const (
	edgeSubmit edgeKind = iota // joins the queue; counts as submitted
	edgeStart                  // leaves the queue; counts as started
	edgeCancel                 // leaves the queue without starting
	edgeEnd                    // releases its nodes; the queue is untouched
)

// queue is the edge's queue-depth delta.
func (k edgeKind) queue() int {
	switch k {
	case edgeSubmit:
		return +1
	case edgeStart, edgeCancel:
		return -1
	}
	return 0
}

// TimelineCollector reconstructs system load from job records: for each
// bucket it reports average allocated nodes, average queue depth
// (submitted-but-not-started jobs), and dispatch/submission counts — the
// utilization view sysadmins read next to the paper's figures. Unlike
// the scatter collectors its state is O(jobs) edges rather than bounded
// figure state: the sweep needs every lifecycle event, so this is the
// one place the streaming pipeline still collects (see DESIGN.md §5).
// Result runs the bucket sweep and caches it until the next Observe or
// Merge; the edges it sorted stay sorted, so the next sweep sorts only
// the edges observed or merged since.
type TimelineCollector struct {
	bucket time.Duration
	edges  []tlEdge
	sorted int // edges[:sorted] are in instant order
	lo, hi time.Time
	cached []TimelinePoint
	dirty  bool
}

// NewTimelineCollector returns an empty collector with the given bucket
// width (≤ 0 defaults to one hour).
func NewTimelineCollector(bucket time.Duration) *TimelineCollector {
	if bucket <= 0 {
		bucket = time.Hour
	}
	return &TimelineCollector{bucket: bucket}
}

// reset empties the collector for a re-collect, keeping the edges'
// storage.
func (c *TimelineCollector) reset() {
	c.edges, c.sorted = c.edges[:0], 0
	c.lo, c.hi = time.Time{}, time.Time{}
	c.cached, c.dirty = nil, false
}

// Bucket returns the collector's bucket width.
func (c *TimelineCollector) Bucket() time.Duration { return c.bucket }

// Observe implements Collector; steps and submit-less records are
// skipped.
func (c *TimelineCollector) Observe(r *slurm.Record) {
	if r.IsStep() || r.Submit.IsZero() {
		return
	}
	c.dirty = true
	if c.lo.IsZero() || r.Submit.Before(c.lo) {
		c.lo = r.Submit
	}
	endOfLife := r.End
	if endOfLife.IsZero() {
		endOfLife = r.Submit
	}
	if endOfLife.After(c.hi) {
		c.hi = endOfLife
	}
	c.edges = append(c.edges, newEdge(r.Submit, 0, edgeSubmit))
	if r.Start.IsZero() {
		// Never ran: leaves the queue at its end (cancellation).
		c.edges = append(c.edges, newEdge(endOfLife, 0, edgeCancel))
		return
	}
	// A zero End is the zero time: the edge sorts before every real one,
	// releases its nodes before the sweep starts and lands in no bucket.
	c.edges = append(c.edges, newEdge(r.Start, +r.NNodes, edgeStart))
	c.edges = append(c.edges, newEdge(r.End, -r.NNodes, edgeEnd))
}

// Merge appends another collector's edges (in their observation order)
// and widens the time extent.
func (c *TimelineCollector) Merge(o *TimelineCollector) {
	if len(o.edges) == 0 {
		return
	}
	c.dirty = true
	c.edges = append(c.edges, o.edges...)
	if c.lo.IsZero() || (!o.lo.IsZero() && o.lo.Before(c.lo)) {
		c.lo = o.lo
	}
	if o.hi.After(c.hi) {
		c.hi = o.hi
	}
}

// Result runs the bucket sweep over the collected edges. The slice is
// cached across calls; callers must not modify it.
func (c *TimelineCollector) Result() []TimelinePoint {
	if !c.dirty {
		return c.cached
	}
	// cached before dirty: a reader that sees the flag clear must also
	// see the sweep it stands for.
	c.cached = c.sweep()
	c.dirty = false
	return c.cached
}

// sortEdges puts the edges in instant order. Observe and Merge only
// append, so the prefix an earlier sweep sorted is still sorted: the
// suffix behind it is sorted alone and merged in from the back through a
// copy of itself. The sweep sums the edges of one instant as a group, so
// their order among themselves is free and neither step is stable.
func (c *TimelineCollector) sortEdges() {
	done, added := c.edges[:c.sorted], c.edges[c.sorted:]
	c.sorted = len(c.edges)
	slices.SortFunc(added, compareEdges)
	if len(done) == 0 || len(added) == 0 || compareEdges(done[len(done)-1], added[0]) <= 0 {
		return
	}
	added = slices.Clone(added)
	i, w := len(done)-1, len(c.edges)-1
	for j := len(added) - 1; j >= 0; w-- {
		if i >= 0 && compareEdges(done[i], added[j]) > 0 {
			c.edges[w], i = done[i], i-1
		} else {
			c.edges[w], j = added[j], j-1
		}
	}
}

func (c *TimelineCollector) sweep() []TimelinePoint {
	if len(c.edges) == 0 || !c.lo.Before(c.hi) {
		return nil
	}
	c.sortEdges()
	edges, lo, hi, bucket := c.edges, c.lo, c.hi, c.bucket

	// hi.Sub saturates, so a span longer than time.Duration's ~292 years
	// ends in the bucket holding lo plus that much; end is that bucket's
	// far side. Bucket bounds are taken from bucket starts, never as
	// lo+(b+1)·bucket, which would overflow there.
	nBuckets := int(hi.Sub(lo)/bucket) + 1
	points := make([]TimelinePoint, nBuckets)
	for i := range points {
		points[i].At = lo.Add(time.Duration(i) * bucket)
	}
	end := points[nBuckets-1].At.Add(bucket)
	// Sweep: integrate busy nodes and queue depth across bucket
	// boundaries, up to end.
	var busy int64
	var queue int
	cursor := lo
	accumulate := func(until time.Time) {
		if until.After(end) {
			until = end
		}
		for cursor.Before(until) {
			// cursor.Sub(lo) saturates only inside the last bucket.
			b := min(int(cursor.Sub(lo)/bucket), nBuckets-1)
			segEnd := points[b].At.Add(bucket)
			if until.Before(segEnd) {
				segEnd = until
			}
			frac := float64(segEnd.Sub(cursor)) / float64(bucket)
			points[b].BusyNodes += float64(busy) * frac
			points[b].QueueDepth += float64(queue) * frac
			cursor = segEnd
		}
	}
	for i := 0; i < len(edges); {
		first := edges[i]
		at := first.at()
		accumulate(at)
		// An edge less than a bucket before lo truncates into bucket 0;
		// one at or past end is in no bucket, though at.Sub(lo) may
		// saturate into the last.
		b := int(at.Sub(lo) / bucket)
		counted := b >= 0 && b < nBuckets && at.Before(end)
		for ; i < len(edges) && compareEdges(edges[i], first) == 0; i++ {
			e := edges[i]
			busy += e.nodes
			queue += e.kind.queue()
			if !counted {
				continue
			}
			switch e.kind {
			case edgeStart:
				points[b].Started++
			case edgeSubmit:
				points[b].Submitted++
			}
		}
	}
	accumulate(hi)
	return points
}

// UtilizationSummary condenses a timeline against a system capacity.
type UtilizationSummary struct {
	Buckets         int
	MeanBusyNodes   float64
	PeakBusyNodes   float64
	MeanUtilization float64 // vs. capacity
	PeakQueueDepth  float64
	MeanQueueDepth  float64
}

// SummarizeTimeline computes the load summary for a node capacity.
func SummarizeTimeline(points []TimelinePoint, capacityNodes int) UtilizationSummary {
	out := UtilizationSummary{Buckets: len(points)}
	if len(points) == 0 || capacityNodes <= 0 {
		return out
	}
	var busySum, queueSum float64
	for _, p := range points {
		busySum += p.BusyNodes
		queueSum += p.QueueDepth
		if p.BusyNodes > out.PeakBusyNodes {
			out.PeakBusyNodes = p.BusyNodes
		}
		if p.QueueDepth > out.PeakQueueDepth {
			out.PeakQueueDepth = p.QueueDepth
		}
	}
	out.MeanBusyNodes = busySum / float64(len(points))
	out.MeanQueueDepth = queueSum / float64(len(points))
	out.MeanUtilization = out.MeanBusyNodes / float64(capacityNodes)
	return out
}
