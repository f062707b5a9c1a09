package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"slurmsight/internal/analyze"
	"slurmsight/internal/plot"
	"slurmsight/internal/slurm"
)

// scatterKeys are the figures whose charts are downsampled to
// maxChartPoints.
var scatterKeys = []string{FigNodesElapsed, FigWaitTimes, FigBackfill}

// scatterBundle observes n started jobs drawn from seed, each of which is
// a point of all three scatter charts, so every chart holds n points.
// States are drawn from a skewed mix; with lone set, the last job is
// the only NODE_FAIL, a series of one point among n.
func scatterBundle(n int, seed int64, lone bool) *analyze.Bundle {
	rng := rand.New(rand.NewSource(seed))
	mix := []slurm.State{
		slurm.StateCompleted, slurm.StateCompleted, slurm.StateCompleted, slurm.StateCompleted,
		slurm.StateFailed, slurm.StateCancelled, slurm.StateTimeout, slurm.StateOutOfMemory,
	}
	b := analyze.NewBundle(TimelineBucket)
	base := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		submit := base.Add(time.Duration(rng.Int63n(int64(90 * 24 * time.Hour))))
		// Some waits and runs are under a second, which the log axes floor.
		wait := time.Duration(rng.Int63n(int64(6 * time.Hour)))
		if rng.Intn(10) == 0 {
			wait = time.Duration(rng.Int63n(int64(time.Second)))
		}
		elapsed := 1 + time.Duration(rng.Int63n(int64(12*time.Hour)))
		if rng.Intn(10) == 0 {
			elapsed = 1 + time.Duration(rng.Int63n(int64(time.Second)))
		}
		r := slurm.Record{
			ID:        slurm.NewJobID(int64(1000 + i)),
			User:      "u",
			Submit:    submit,
			Start:     submit.Add(wait),
			End:       submit.Add(wait + elapsed),
			Elapsed:   elapsed,
			Timelimit: elapsed + time.Duration(rng.Int63n(int64(4*time.Hour))),
			NNodes:    1 + rng.Int63n(9408),
			State:     mix[rng.Intn(len(mix))],
		}
		if rng.Intn(5) < 2 {
			r.Flags = []string{slurm.FlagBackfill}
		}
		if lone && i == n-1 {
			r.State = slurm.StateNodeFail
		}
		b.Observe(&r)
	}
	return b
}

// TestScatterChartsGoldenDigest pins the three scatter specs at sizes
// either side of maxChartPoints: one point, just under, at and just over
// the bound, and about 4.5 times it with a one-point state whose share
// rounds to no point at all. The constant was recorded before the
// builders sized their series from a counting pass, when they copied
// every point and then decimated the copy.
func TestScatterChartsGoldenDigest(t *testing.T) {
	h := sha256.New()
	for i, tc := range []struct {
		n    int
		lone bool
	}{{1, false}, {19_999, false}, {20_000, false}, {20_001, false}, {90_001, true}} {
		b := scatterBundle(tc.n, int64(i+1), tc.lone)
		for _, key := range scatterKeys {
			c, err := ChartFromBundle(key, "frontier", b, 15, 0)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := c.JSON()
			if err != nil {
				t.Fatalf("%s at %d points: %v", key, tc.n, err)
			}
			if downsampled := c.Notes != ""; downsampled != (tc.n > maxChartPoints) {
				t.Errorf("%s at %d points: notes %q", key, tc.n, c.Notes)
			}
			h.Write(spec)
		}
	}
	const want = "3fce7baf6064f15086a0fa35f3474ee52b83aa2164f7de56756d3ea2fb21ee52"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("scatter specs digest to %s, want %s", got, want)
	}
}

// mixedBundle observes n jobs from rng under a random state mix and a
// random backfill share (none and all included), some of them outside
// one scatter or another: never started, no elapsed time, or no
// walltime request.
func mixedBundle(rng *rand.Rand, n int) *analyze.Bundle {
	states := slurm.States()
	rng.Shuffle(len(states), func(i, j int) { states[i], states[j] = states[j], states[i] })
	states = states[:1+rng.Intn(len(states))]
	weights := make([]int, len(states))
	for i := range weights {
		weights[i] = 1 + rng.Intn(100)
		if rng.Intn(4) == 0 {
			weights[i] = 0 // at most a lone point: see below
		}
	}
	backfill := []float64{0, 1, rng.Float64()}[rng.Intn(3)]
	draw := func() slurm.State {
		sum := 0
		for _, w := range weights {
			sum += w
		}
		if sum == 0 {
			return states[0]
		}
		k := rng.Intn(sum)
		for i, w := range weights {
			if k < w {
				return states[i]
			}
			k -= w
		}
		panic("unreachable")
	}
	b := analyze.NewBundle(TimelineBucket)
	base := time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		submit := base.Add(time.Duration(rng.Int63n(int64(30 * 24 * time.Hour))))
		wait := time.Duration(rng.Int63n(int64(2 * time.Hour)))
		elapsed := time.Duration(rng.Int63n(int64(8 * time.Hour)))
		r := slurm.Record{
			ID:        slurm.NewJobID(int64(i + 1)),
			User:      "u",
			Submit:    submit,
			Start:     submit.Add(wait),
			End:       submit.Add(wait + elapsed),
			Elapsed:   elapsed,
			Timelimit: elapsed + time.Duration(rng.Int63n(int64(time.Hour))),
			NNodes:    1 + rng.Int63n(64),
			State:     draw(),
		}
		switch rng.Intn(20) {
		case 0:
			r.Start, r.End, r.Elapsed = time.Time{}, time.Time{}, 0
		case 1:
			r.Elapsed = 0
		case 2:
			r.Timelimit = 0
		}
		if rng.Float64() < backfill {
			r.Flags = []string{slurm.FlagBackfill}
		}
		b.Observe(&r)
	}
	// A state of weight zero gets one point at most, a series whose share
	// of a large chart rounds to nothing.
	for i, w := range weights {
		if w == 0 && i > 0 && rng.Intn(2) == 0 {
			r := slurm.Record{
				ID: slurm.NewJobID(int64(n + i + 1)), User: "u",
				Submit: base, Start: base.Add(time.Minute), End: base.Add(time.Hour),
				Elapsed: 59 * time.Minute, Timelimit: time.Hour, NNodes: 2, State: states[i],
			}
			b.Observe(&r)
		}
	}
	return b
}

// TestScatterChartsMatchReference builds the three scatter charts of
// random bundles — sizes from one point to several times the bound,
// random state mixes and backfill shares — and requires the bytes the
// reference builders below produce.
func TestScatterChartsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	sizes := []int{0, 1, 2, maxChartPoints - 1, maxChartPoints, maxChartPoints + 1, 3*maxChartPoints + 7}
	for i := 0; i < 12; i++ {
		sizes = append(sizes, 1+rng.Intn(4*maxChartPoints))
	}
	for _, n := range sizes {
		b := mixedBundle(rng, n)
		ref := map[string]*plot.Chart{
			FigNodesElapsed: referenceNodesElapsedChart("frontier", b.Scale.Result()),
			FigWaitTimes:    referenceWaitChart("frontier", b.Waits.Result()),
			FigBackfill:     referenceBackfillChart("frontier", b.Backfill.Result()),
		}
		for _, key := range scatterKeys {
			c, err := ChartFromBundle(key, "frontier", b, 15, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, gotErr := c.JSON()
			want, wantErr := ref[key].JSON()
			if (gotErr == nil) != (wantErr == nil) || !bytes.Equal(got, want) {
				t.Fatalf("%s over %d jobs: %d points, notes %q, error %v; the reference has %d points, notes %q, error %v",
					key, n, c.Points(), c.Notes, gotErr, ref[key].Points(), ref[key].Notes, wantErr)
			}
		}
	}
}

// TestScatterChartAllocsDoNotScaleWithPoints pins what a scatter chart
// of 100,000 points costs: about the maxChartPoints points it keeps,
// not a copy of every point it was offered.
func TestScatterChartAllocsDoNotScaleWithPoints(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector pads allocations")
	}
	b := scatterBundle(100_000, 7, false)
	// Each kept point is two float64s; the rest is the series headers,
	// the counting slots and the note.
	const limit = 2 * 16 * maxChartPoints
	for _, key := range scatterKeys {
		var c *plot.Chart
		allocated := allocBytes(func() {
			var err error
			if c, err = ChartFromBundle(key, "frontier", b, 15, 0); err != nil {
				t.Fatal(err)
			}
		})
		if c.Points() > maxChartPoints+len(c.Series) {
			t.Errorf("%s keeps %d points", key, c.Points())
		}
		if allocated > limit {
			t.Errorf("%s of 100,000 points allocates %d bytes, want <= %d", key, allocated, limit)
		}
	}
}

// allocBytes returns the bytes f allocates, the least of three runs.
func allocBytes(f func()) uint64 {
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestNodesChartFloorsZeroNodes is the Figure 3 half of a job recorded
// with no nodes: it is drawn at one node, so the chart's log axis stays
// valid and its spec encodes.
func TestNodesChartFloorsZeroNodes(t *testing.T) {
	b := scatterBundle(3, 11, false)
	at := time.Date(2024, 2, 1, 0, 0, 0, 0, time.UTC)
	r := slurm.Record{
		ID: slurm.NewJobID(99), User: "u", Submit: at, Start: at, End: at.Add(time.Hour),
		Elapsed: time.Hour, Timelimit: 2 * time.Hour, NNodes: 0, State: slurm.StateCompleted,
	}
	b.Observe(&r)
	c, err := ChartFromBundle(FigNodesElapsed, "frontier", b, 15, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.JSON(); err != nil {
		t.Fatalf("a zero-node job breaks the spec: %v", err)
	}
	if y := c.Series[0].Y[len(c.Series[0].Y)-1]; c.Series[0].Name != "COMPLETED" || y != 1 {
		t.Errorf("the zero-node job is drawn at %v nodes in %s, want 1 in COMPLETED", y, c.Series[0].Name)
	}
}

// The builders below are the ones the sized builders replaced, kept as
// the tests' reference: every point copied into full-length series,
// then a copy decimated by Downsample.

func referenceNodesElapsedChart(system string, points []analyze.NodesElapsedPoint) *plot.Chart {
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
		Series: referenceStateSeries(perState),
	}
	return referenceDownsample(c, maxChartPoints)
}

func referenceWaitChart(system string, points []analyze.WaitPoint) *plot.Chart {
	perState := map[slurm.State]*plot.Series{}
	for _, p := range points {
		s, ok := perState[p.State]
		if !ok {
			s = &plot.Series{Name: p.State.String(), Color: plot.StateColor(p.State), Marker: plot.Dot}
			perState[p.State] = s
		}
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
		Series: referenceStateSeries(perState),
	}
	return referenceDownsample(c, maxChartPoints)
}

func referenceBackfillChart(system string, points []analyze.BackfillPoint) *plot.Chart {
	regular := plot.Series{Name: "regular", Marker: plot.Dot, Color: "#1f77b4"}
	backfilled := plot.Series{Name: "backfilled", Marker: plot.Plus, Color: "#d62728"}
	for _, p := range points {
		a := p.ActualSec
		if a < 1 {
			a = 1
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
	return referenceDownsample(c, maxChartPoints)
}

func referenceStateSeries(m map[slurm.State]*plot.Series) []plot.Series {
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

// referenceDownsample is the deleted plot.Chart.Downsample.
func referenceDownsample(c *plot.Chart, maxPoints int) *plot.Chart {
	if maxPoints <= 0 || c.Points() <= maxPoints || c.Kind != plot.Scatter {
		return c
	}
	out := *c
	out.Series = make([]plot.Series, len(c.Series))
	total := c.Points()
	for i := range c.Series {
		s := c.Series[i]
		keep := int(math.Round(float64(len(s.Y)) * float64(maxPoints) / float64(total)))
		if keep < 1 {
			keep = 1
		}
		stride := (len(s.Y) + keep - 1) / keep
		ns := plot.Series{Name: s.Name, Marker: s.Marker, Color: s.Color}
		for j := 0; j < len(s.Y); j += stride {
			ns.X = append(ns.X, s.X[j])
			ns.Y = append(ns.Y, s.Y[j])
		}
		out.Series[i] = ns
	}
	out.Notes = fmt.Sprintf("downsampled from %d to %d points", total, out.Points())
	return &out
}
