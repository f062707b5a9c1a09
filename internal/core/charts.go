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
	"context"
	"fmt"
	"sort"
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

// nodesElapsedChart builds the Figure 3/7 log-log scatter.
func nodesElapsedChart(system string, points []analyze.NodesElapsedPoint) *plot.Chart {
	perState := map[slurm.State]*plot.Series{}
	for _, p := range points {
		s, ok := perState[p.State]
		if !ok {
			s = &plot.Series{Name: p.State.String(), Color: plot.StateColor(p.State), Marker: plot.Dot}
			perState[p.State] = s
		}
		s.X = append(s.X, p.ElapsedSec)
		s.Y = append(s.Y, float64(p.Nodes))
	}
	c := &plot.Chart{
		Title:  fmt.Sprintf("Allocated nodes versus job elapsed time on %s", system),
		XLabel: "elapsed time (s)", YLabel: "allocated nodes",
		Kind: plot.Scatter, XScale: plot.Log10, YScale: plot.Log10,
		Series: orderedStateSeries(perState),
	}
	return c.Downsample(maxChartPoints)
}

// waitChart builds the Figure 4 wait-time scatter, colour-coded by final
// state.
func waitChart(system string, points []analyze.WaitPoint) *plot.Chart {
	perState := map[slurm.State]*plot.Series{}
	for _, p := range points {
		s, ok := perState[p.State]
		if !ok {
			s = &plot.Series{Name: p.State.String(), Color: plot.StateColor(p.State), Marker: plot.Dot}
			perState[p.State] = s
		}
		// Log axes reject zero; a sub-second wait reads as one second.
		w := p.WaitSec
		if w < 1 {
			w = 1
		}
		s.X = append(s.X, float64(p.Submit.Unix()))
		s.Y = append(s.Y, w)
	}
	c := &plot.Chart{
		Title:  fmt.Sprintf("Job queue wait times on %s by final state", system),
		XLabel: "submission time", YLabel: "wait time (s)",
		Kind: plot.Scatter, YScale: plot.Log10, XTime: true,
		Series: orderedStateSeries(perState),
	}
	return c.Downsample(maxChartPoints)
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
	regular := plot.Series{Name: "regular", Marker: plot.Dot, Color: "#1f77b4"}
	backfilled := plot.Series{Name: "backfilled", Marker: plot.Plus, Color: "#d62728"}
	for _, p := range points {
		a := p.ActualSec
		if a < 1 {
			a = 1 // log axis floor for instantly-failing jobs
		}
		if p.Backfilled {
			backfilled.X = append(backfilled.X, p.RequestedSec)
			backfilled.Y = append(backfilled.Y, a)
		} else {
			regular.X = append(regular.X, p.RequestedSec)
			regular.Y = append(regular.Y, a)
		}
	}
	var series []plot.Series
	for _, s := range []plot.Series{regular, backfilled} {
		if len(s.Y) > 0 {
			series = append(series, s)
		}
	}
	c := &plot.Chart{
		Title:  fmt.Sprintf("Requested versus actual walltimes on %s", system),
		XLabel: "requested walltime (s)", YLabel: "actual duration (s)",
		Kind: plot.Scatter, XScale: plot.Log10, YScale: plot.Log10,
		Series: series,
	}
	return c.Downsample(maxChartPoints)
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

// orderedStateSeries flattens a per-state series map in canonical state
// order so artifact output is deterministic.
func orderedStateSeries(m map[slurm.State]*plot.Series) []plot.Series {
	states := make([]slurm.State, 0, len(m))
	for st := range m {
		states = append(states, st)
	}
	sort.Slice(states, func(i, j int) bool { return states[i] < states[j] })
	out := make([]plot.Series, 0, len(states))
	for _, st := range states {
		out = append(out, *m[st])
	}
	return out
}
