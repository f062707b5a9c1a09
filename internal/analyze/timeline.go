package analyze

import (
	"sort"
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

// tlEdge is one state-change event in the load reconstruction.
type tlEdge struct {
	at    time.Time
	nodes int64 // ± allocation
	queue int   // ± queue depth
	start bool
	sub   bool
}

// TimelineCollector reconstructs system load from job records: for each
// bucket it reports average allocated nodes, average queue depth
// (submitted-but-not-started jobs), and dispatch/submission counts — the
// utilization view sysadmins read next to the paper's figures. Unlike
// the scatter collectors its state is O(jobs) edges rather than bounded
// figure state: the sweep needs every lifecycle event, so this is the
// one place the streaming pipeline still collects (see DESIGN.md §5).
// Result runs the bucket sweep and caches it until the next Observe or
// Merge.
type TimelineCollector struct {
	bucket time.Duration
	edges  []tlEdge
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
	c.edges = append(c.edges, tlEdge{at: r.Submit, queue: +1, sub: true})
	if r.Start.IsZero() {
		// Never ran: leaves the queue at its end (cancellation).
		c.edges = append(c.edges, tlEdge{at: endOfLife, queue: -1})
		return
	}
	c.edges = append(c.edges, tlEdge{at: r.Start, queue: -1, nodes: +r.NNodes, start: true})
	c.edges = append(c.edges, tlEdge{at: r.End, nodes: -r.NNodes})
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

func (c *TimelineCollector) sweep() []TimelinePoint {
	edges, lo, hi, bucket := c.edges, c.lo, c.hi, c.bucket
	if len(edges) == 0 || !lo.Before(hi) {
		return nil
	}
	sort.SliceStable(edges, func(a, b int) bool { return edges[a].at.Before(edges[b].at) })

	nBuckets := int(hi.Sub(lo)/bucket) + 1
	points := make([]TimelinePoint, nBuckets)
	for i := range points {
		points[i].At = lo.Add(time.Duration(i) * bucket)
	}
	// Sweep: integrate busy nodes and queue depth across bucket
	// boundaries.
	var busy int64
	var queue int
	cursor := lo
	idx := 0
	accumulate := func(until time.Time) {
		for cursor.Before(until) {
			b := int(cursor.Sub(lo) / bucket)
			if b >= nBuckets {
				return
			}
			bucketEnd := lo.Add(time.Duration(b+1) * bucket)
			segEnd := until
			if bucketEnd.Before(segEnd) {
				segEnd = bucketEnd
			}
			frac := float64(segEnd.Sub(cursor)) / float64(bucket)
			points[b].BusyNodes += float64(busy) * frac
			points[b].QueueDepth += float64(queue) * frac
			cursor = segEnd
		}
	}
	for idx < len(edges) {
		accumulate(edges[idx].at)
		at := edges[idx].at
		for idx < len(edges) && edges[idx].at.Equal(at) {
			e := edges[idx]
			busy += e.nodes
			queue += e.queue
			b := int(at.Sub(lo) / bucket)
			if b >= 0 && b < nBuckets {
				if e.start {
					points[b].Started++
				}
				if e.sub {
					points[b].Submitted++
				}
			}
			idx++
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
