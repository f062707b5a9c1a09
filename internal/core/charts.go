// Package core is the paper's primary contribution: the hybrid workflow
// that turns a Slurm accounting database into curated datasets,
// field-specific interactive visualizations, a consolidated dashboard, and
// LLM-generated interpretations. The static data-analysis subworkflow
// (obtain → curate → plot → dashboard) and the user-defined AI subworkflow
// (HTML2PNG → LLM insight / LLM compare) are composed as a dataflow graph
// and executed with N-way concurrency, mirroring the Swift/T parallel
// pipelines of §3.3.
package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"
	"time"

	"slurmsight/internal/analyze"
	"slurmsight/internal/obs"
	"slurmsight/internal/plot"
	"slurmsight/internal/slurm"
)

// Figure keys name the workflow's chart artifacts; they match the paper's
// figure numbering for the Frontier run.
const (
	FigVolume       = "fig1-volume"
	FigNodesElapsed = "fig3-nodes-vs-elapsed"
	FigWaitTimes    = "fig4-wait-times"
	FigStates       = "fig5-states-per-user"
	FigBackfill     = "fig6-requested-vs-actual"
)

// FigureKeys returns the static figure set in presentation order.
func FigureKeys() []string {
	return []string{FigVolume, FigNodesElapsed, FigWaitTimes, FigStates, FigBackfill}
}

// Extended (non-paper) operator figures.
const (
	ExtLoad       = "ext-load-timeline"
	ExtQueueDepth = "ext-queue-depth"
)

// ExtendedFigureKeys returns the operator figure set.
func ExtendedFigureKeys() []string { return []string{ExtLoad, ExtQueueDepth} }

// maxChartPoints bounds scatter sizes in HTML/PNG artifacts.
const maxChartPoints = 20000

// TimelineBucket is the resolution of the operator timelines: every
// bundle the workflow, the serving layer and the federation collect
// aggregates at it.
const TimelineBucket = 6 * time.Hour

// ChartFromBundle builds the named figure (a FigureKeys or
// ExtendedFigureKeys key) from a collected bundle — the one way a chart
// is built. topUsers bounds the Figure 5 user list; capacityNodes draws
// the load-timeline reference line when positive. Unknown keys error.
// The chart never aliases the bundle's storage: every slice and string
// it holds is its own or immutable, so it stays valid, and may be
// encoded without a lock, while the bundle observes more records or is
// re-collected in place.
func ChartFromBundle(key, system string, b *analyze.Bundle, topUsers, capacityNodes int) (*plot.Chart, error) {
	return ChartFromBundleCtx(context.Background(), key, system, b, topUsers, capacityNodes)
}

// ChartFromBundleCtx is ChartFromBundle under a request context: when
// ctx carries an active obs span, the render reports itself as a
// "figure-render" child span tagged with the figure key, completing the
// serving plane's per-request stage decomposition.
func ChartFromBundleCtx(ctx context.Context, key, system string, b *analyze.Bundle, topUsers, capacityNodes int) (*plot.Chart, error) {
	if sp := obs.SpanFromContext(ctx).Child("figure-render"); sp != nil {
		sp.SetAttr("figure", key)
		defer sp.End()
	}
	switch key {
	case FigVolume:
		return volumeChart(system, b.Volume.Result()), nil
	case FigNodesElapsed:
		return nodesElapsedChart(system, b.Scale.Result()), nil
	case FigWaitTimes:
		return waitChart(system, b.Waits.Result()), nil
	case FigStates:
		return statesChart(system, b.Users.Result(topUsers)), nil
	case FigBackfill:
		return backfillChart(system, b.Backfill.Result()), nil
	case ExtLoad:
		return loadTimelineChart(system, b.Timeline.Result(), capacityNodes), nil
	case ExtQueueDepth:
		return queueDepthChart(system, b.Timeline.Result()), nil
	}
	return nil, fmt.Errorf("core: unknown figure %q", key)
}

// volumeChart builds the Figure 1 grouped bars from per-year volumes.
func volumeChart(system string, vols []analyze.VolumeByYear) *plot.Chart {
	cats := make([]string, len(vols))
	jobs := make([]float64, len(vols))
	steps := make([]float64, len(vols))
	for i, v := range vols {
		cats[i] = strconv.Itoa(v.Year)
		jobs[i] = float64(v.Jobs)
		steps[i] = float64(v.Steps)
	}
	return &plot.Chart{
		Title:  fmt.Sprintf("Jobs and job-steps per year on %s", system),
		XLabel: "year", YLabel: "count",
		Kind: plot.GroupedBar, YScale: plot.Log10,
		Categories: cats,
		Series: []plot.Series{
			{Name: "jobs", Y: jobs, Color: "#1f77b4"},
			{Name: "job-steps", Y: steps, Color: "#ff7f0e"},
		},
	}
}

// nodesElapsedChart builds the Figure 3/7 log-log scatter. A job
// recorded with no nodes is drawn at one, the log axis's floor, as the
// other two scatters floor their sub-second times.
func nodesElapsedChart(system string, points []analyze.NodesElapsedPoint) *plot.Chart {
	series, note := stateScatter(points,
		func(p *analyze.NodesElapsedPoint) slurm.State { return p.State },
		func(p *analyze.NodesElapsedPoint) (x, y float64) { return p.ElapsedSec, max(float64(p.Nodes), 1) })
	return &plot.Chart{
		Title:  fmt.Sprintf("Allocated nodes versus job elapsed time on %s", system),
		XLabel: "elapsed time (s)", YLabel: "allocated nodes",
		Kind: plot.Scatter, XScale: plot.Log10, YScale: plot.Log10,
		Series: series, Notes: note,
	}
}

// waitChart builds the Figure 4 wait-time scatter, colour-coded by final
// state.
func waitChart(system string, points []analyze.WaitPoint) *plot.Chart {
	series, note := stateScatter(points,
		func(p *analyze.WaitPoint) slurm.State { return p.State },
		func(p *analyze.WaitPoint) (x, y float64) {
			// Log axes reject zero; a sub-second wait reads as one second.
			w := p.WaitSec
			if w < 1 {
				w = 1
			}
			return float64(p.Submit.Unix()), w
		})
	return &plot.Chart{
		Title:  fmt.Sprintf("Job queue wait times on %s by final state", system),
		XLabel: "submission time", YLabel: "wait time (s)",
		Kind: plot.Scatter, YScale: plot.Log10, XTime: true,
		Series: series, Notes: note,
	}
}

// statesChart builds the Figure 5/8 stacked bars from a ranked user list.
func statesChart(system string, users []analyze.UserStates) *plot.Chart {
	cats := make([]string, len(users))
	series := []plot.Series{}
	for _, st := range slurm.TerminalStates() {
		ys := make([]float64, len(users))
		any := false
		for i := range users {
			cats[i] = users[i].User
			if n := users[i].Counts[st]; n > 0 {
				ys[i] = float64(n)
				any = true
			}
		}
		if any {
			series = append(series, plot.Series{Name: st.String(), Y: ys, Color: plot.StateColor(st)})
		}
	}
	return &plot.Chart{
		Title:  fmt.Sprintf("Job end states per user on %s", system),
		XLabel: "user", YLabel: "jobs",
		Kind:       plot.StackedBar,
		Categories: cats,
		Series:     series,
	}
}

// backfillChart builds the Figure 6/9 requested-versus-actual scatter
// with backfilled jobs marked by plus symbols.
func backfillChart(system string, points []analyze.BackfillPoint) *plot.Chart {
	// Series 0 is the regular jobs, series 1 the backfilled ones.
	kind := func(p *analyze.BackfillPoint) int {
		if p.Backfilled {
			return 1
		}
		return 0
	}
	var sc scatter
	for i := range points {
		sc.count(kind(&points[i]))
	}
	note := sc.size(func(k int) plot.Series {
		if k == 1 {
			return plot.Series{Name: "backfilled", Marker: plot.Plus, Color: "#d62728"}
		}
		return plot.Series{Name: "regular", Marker: plot.Dot, Color: "#1f77b4"}
	})
	for i := range points {
		p := &points[i]
		a := p.ActualSec
		if a < 1 {
			a = 1 // log axis floor for instantly-failing jobs
		}
		sc.add(kind(p), p.RequestedSec, a)
	}
	return &plot.Chart{
		Title:  fmt.Sprintf("Requested versus actual walltimes on %s", system),
		XLabel: "requested walltime (s)", YLabel: "actual duration (s)",
		Kind: plot.Scatter, XScale: plot.Log10, YScale: plot.Log10,
		Series: sc.series, Notes: note,
	}
}

// loadTimelineChart builds the extended system-load view: mean busy
// nodes per bucket with the capacity as a reference series.
func loadTimelineChart(system string, points []analyze.TimelinePoint, capacityNodes int) *plot.Chart {
	busy := plot.Series{Name: "busy nodes", Color: "#1f77b4"}
	for _, p := range points {
		busy.X = append(busy.X, float64(p.At.Unix()))
		busy.Y = append(busy.Y, p.BusyNodes)
	}
	series := []plot.Series{busy}
	if capacityNodes > 0 && len(busy.X) > 1 {
		series = append(series, plot.Series{
			Name:  "capacity",
			Color: "#d62728",
			X:     []float64{busy.X[0], busy.X[len(busy.X)-1]},
			Y:     []float64{float64(capacityNodes), float64(capacityNodes)},
		})
	}
	return &plot.Chart{
		Title:  fmt.Sprintf("System load over time on %s", system),
		XLabel: "time", YLabel: "allocated nodes",
		Kind: plot.Line, XTime: true,
		Series: series,
	}
}

// queueDepthChart builds the extended queue-pressure view.
func queueDepthChart(system string, points []analyze.TimelinePoint) *plot.Chart {
	depth := plot.Series{Name: "pending jobs", Color: "#ff7f0e"}
	for _, p := range points {
		depth.X = append(depth.X, float64(p.At.Unix()))
		depth.Y = append(depth.Y, p.QueueDepth)
	}
	return &plot.Chart{
		Title:  fmt.Sprintf("Queue depth over time on %s", system),
		XLabel: "time", YLabel: "pending jobs",
		Kind: plot.Line, XTime: true,
		Series: []plot.Series{depth},
	}
}

// stateScatter builds the series of a scatter coloured by final state,
// one per state in state order, through scatter.
func stateScatter[P any](points []P, state func(*P) slurm.State, xy func(*P) (x, y float64)) ([]plot.Series, string) {
	var sc scatter
	for i := range points {
		sc.count(int(state(&points[i])))
	}
	note := sc.size(func(key int) plot.Series {
		st := slurm.State(key)
		return plot.Series{Name: st.String(), Color: plot.StateColor(st), Marker: plot.Dot}
	})
	for i := range points {
		p := &points[i]
		x, y := xy(p)
		sc.add(int(state(p)), x, y)
	}
	return sc.series, note
}

// scatter sizes a scatter chart's series before it fills them, so a
// chart allocates the points it shows and never a copy of every point
// it was offered. A counting pass offers each point's key to count;
// size orders the series by key, fixes each one's sampleStride and
// allocates it at its final length; a fill pass offers every point again,
// in the same order, to add, which copies only the points its series
// samples. A key no point carries has no series.
type scatter struct {
	slots  []scatterSlot
	series []plot.Series // series k is slots[k]'s
}

type scatterSlot struct {
	key    int
	n      int // points counted
	stride int // every stride-th point is kept, the first included
	seen   int // points the fill pass has offered
}

// slot returns key's slot index, or -1. A chart has a handful of keys,
// so a scan beats a map.
func (sc *scatter) slot(key int) int {
	for k := range sc.slots {
		if sc.slots[k].key == key {
			return k
		}
	}
	return -1
}

func (sc *scatter) count(key int) {
	k := sc.slot(key)
	if k < 0 {
		k = len(sc.slots)
		sc.slots = append(sc.slots, scatterSlot{key: key})
	}
	sc.slots[k].n++
}

// size allocates every series, named and styled by template, at the
// length its stride leaves it, all of them in one backing array, and
// returns the chart's note: empty, or what the sampling kept.
func (sc *scatter) size(template func(key int) plot.Series) string {
	slices.SortFunc(sc.slots, func(a, b scatterSlot) int { return cmp.Compare(a.key, b.key) })
	total := 0
	for _, s := range sc.slots {
		total += s.n
	}
	kept := 0
	for k := range sc.slots {
		s := &sc.slots[k]
		s.stride = sampleStride(s.n, total, maxChartPoints)
		kept += (s.n + s.stride - 1) / s.stride
	}
	buf := make([]float64, 2*kept)
	sc.series = make([]plot.Series, len(sc.slots))
	for k, s := range sc.slots {
		m := (s.n + s.stride - 1) / s.stride
		sc.series[k] = template(s.key)
		sc.series[k].X, buf = buf[:0:m], buf[m:]
		sc.series[k].Y, buf = buf[:0:m], buf[m:]
	}
	if total <= maxChartPoints {
		return ""
	}
	return fmt.Sprintf("downsampled from %d to %d points", total, kept)
}

// add offers the next point of key's series, which keeps it when its
// stride samples it.
func (sc *scatter) add(key int, x, y float64) {
	k := sc.slot(key)
	s := &sc.slots[k]
	if s.seen%s.stride == 0 {
		sc.series[k].X = append(sc.series[k].X, x)
		sc.series[k].Y = append(sc.series[k].Y, y)
	}
	s.seen++
}

// sampleStride is the one rule that thins a scatter chart of total
// points to about limit: a series of n points keeps its share of limit,
// keep = round(n·limit/total) and at least one, by taking every
// stride-th point from its first, stride = ⌈n/keep⌉. A chart within
// limit keeps every point.
func sampleStride(n, total, limit int) int {
	if total <= limit {
		return 1
	}
	keep := max(int(math.Round(float64(n)*float64(limit)/float64(total))), 1)
	return (n + keep - 1) / keep
}
