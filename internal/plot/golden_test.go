package plot

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
)

// goldenCharts is the render golden's table: every Kind, every Marker
// (and the empty default), linear and log10 on each axis, a time x axis,
// tooltips on and off, markup-special text everywhere a label goes, a
// spec carrying "</", more categories than the label stride allows, and
// the degenerate ranges dataRange and pad special-case.
func goldenCharts() []struct {
	name string
	c    *Chart
	w, h int
} {
	// lcg is a fixed pseudo-random stream so the table needs no seed.
	state := uint64(0x9e3779b97f4a7c15)
	lcg := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / (1 << 53)
	}
	series := func(n int, fx, fy func(i int) float64) ([]float64, []float64) {
		xs, ys := make([]float64, n), make([]float64, n)
		for i := range xs {
			xs[i], ys[i] = fx(i), fy(i)
		}
		return xs, ys
	}
	magX, magY := series(12, func(i int) float64 { return math.Pow(10, float64(i)-3) * (1 + lcg()) },
		func(i int) float64 { return -5e9 + float64(i)*1e9*lcg() })
	bigX, bigY := series(4500, func(i int) float64 { return 1 + float64(i)*lcg() },
		func(i int) float64 { return 0.001 + 1e5*lcg()*lcg() })
	timeX, timeY := series(60, func(i int) float64 { return 1704067200 + float64(i)*21600 },
		func(i int) float64 { return 900 * (1 + math.Sin(float64(i)/5)) })
	lineX, lineY := series(40, func(i int) float64 { return float64(i) },
		func(i int) float64 { return 0.5 + 3*lcg() })
	negX, negY := series(25, func(i int) float64 { return -100 + float64(i)*3.3 },
		func(i int) float64 { return -0.004 - lcg() })

	cats := make([]string, 37)
	stackA, stackB, stackC := make([]float64, 37), make([]float64, 37), make([]float64, 37)
	for i := range cats {
		cats[i] = fmt.Sprintf("user%02d", i)
		stackA[i] = math.Floor(2000 * lcg())
		stackB[i] = math.Floor(50*lcg()) - 10 // some zero and negative bars
		stackC[i] = 0.25 + lcg()
	}
	cats[3] = `a&b <c> "d"`

	return []struct {
		name string
		c    *Chart
		w, h int
	}{
		{"scatter-log-log", scatterChart(), 960, 540},
		{"scatter-lin-lin-magnitudes", &Chart{
			Title: "magnitudes", XLabel: "x", YLabel: "y", Kind: Scatter,
			Series: []Series{
				{Name: "square", X: magX, Y: magY, Marker: Square},
				{Name: "default", X: magX[:5], Y: magY[:5]},
				{Name: "dot", X: magX[5:], Y: magY[5:], Marker: Dot, Color: "#123456"},
			},
		}, 801, 451},
		{"scatter-logx-liny", &Chart{
			Title: "logx", XLabel: "requested (s)", YLabel: "actual (s)", Kind: Scatter, XScale: Log10,
			Series: []Series{{Name: "plus", X: magX, Y: lineY[:12], Marker: Plus}},
		}, 640, 400},
		{"scatter-linx-logy", &Chart{
			Title: "logy", XLabel: "x", YLabel: "y", Kind: Scatter, YScale: Log10,
			Series: []Series{{Name: "s", X: lineX, Y: lineY, Marker: Square}},
		}, 960, 540},
		{"scatter-xtime", &Chart{
			Title: "waits over time", XLabel: "submit", YLabel: "wait (s)", Kind: Scatter, XTime: true,
			Series: []Series{{Name: "jobs", X: timeX, Y: timeY}},
		}, 960, 540},
		{"scatter-no-tooltips", &Chart{
			Title: "big", XLabel: "x", YLabel: "y", Kind: Scatter, XScale: Log10, YScale: Log10,
			Series: []Series{{Name: "many", X: bigX, Y: bigY, Marker: Plus}},
		}, 960, 540},
		{"scatter-escapes", &Chart{
			Title: `wait < 100 & "quoted" > tail`, XLabel: `x <&>`, YLabel: `y "q"`, Kind: Scatter,
			Series: []Series{
				{Name: `a&b`, X: []float64{1, 2, 3}, Y: []float64{3, 1, 2}},
				{Name: `<c> "d"`, X: []float64{2, 3}, Y: []float64{2, 2}, Marker: Plus},
			},
		}, 960, 540},
		{"scatter-spec-closing-tag", &Chart{
			Title: "closing </script> tag", XLabel: "</x>", YLabel: "y",
			Kind:   Scatter,
			Notes:  `</script><script>alert(1)</script>`,
			Series: []Series{{Name: "</s>", X: []float64{1, 2}, Y: []float64{1, 4}}},
		}, 960, 540},
		{"scatter-one-point", &Chart{
			Title: "one", XLabel: "x", YLabel: "y", Kind: Scatter,
			Series: []Series{{Name: "p", X: []float64{42}, Y: []float64{7}}},
		}, 960, 540},
		{"scatter-one-point-log", &Chart{
			Title: "one log", XLabel: "x", YLabel: "y", Kind: Scatter, XScale: Log10, YScale: Log10,
			Series: []Series{{Name: "p", X: []float64{3600}, Y: []float64{128}}},
		}, 960, 540},
		{"scatter-zero", &Chart{
			Title: "zero", XLabel: "x", YLabel: "y", Kind: Scatter,
			Series: []Series{{Name: "z", X: []float64{0, 0, 0}, Y: []float64{0, 0, 0}}},
		}, 960, 540},
		{"scatter-negative-linear", &Chart{
			Title: "negative", XLabel: "x", YLabel: "y", Kind: Scatter,
			Series: []Series{{Name: "n", X: negX, Y: negY, Marker: Square}},
		}, 960, 540},
		{"line-linear", &Chart{
			Title: "volume", XLabel: "year", YLabel: "count", Kind: Line,
			Series: []Series{
				{Name: "jobs", X: lineX, Y: lineY},
				{Name: "steps", X: lineX[:20], Y: lineY[20:], Color: "#ff0000"},
			},
		}, 960, 540},
		{"line-xtime-logy", &Chart{
			Title: "load", XLabel: "time", YLabel: "nodes", Kind: Line, XTime: true, YScale: Log10,
			Series: []Series{{Name: "busy", X: timeX, Y: timeY[:60]}},
		}, 960, 540},
		{"line-one-point", &Chart{
			Title: "flat", XLabel: "x", YLabel: "y", Kind: Line,
			Series: []Series{{Name: "l", X: []float64{-3}, Y: []float64{-3}}},
		}, 960, 540},
		{"stacked-many-categories", &Chart{
			Title: "States per user & more", XLabel: "user", YLabel: "jobs", Kind: StackedBar,
			Categories: cats,
			Series: []Series{
				{Name: "COMPLETED", Y: stackA, Color: "#2ca02c"},
				{Name: `FAILED <bad>`, Y: stackB},
				{Name: "OTHER", Y: stackC},
			},
		}, 960, 540},
		{"stacked-log", &Chart{
			Title: "stacked log", XLabel: "c", YLabel: "v", Kind: StackedBar, YScale: Log10,
			Categories: []string{"a", "b", "c"},
			Series: []Series{
				{Name: "s1", Y: []float64{10, 200, 3000}},
				{Name: "s2", Y: []float64{1, 0, 40000}},
			},
		}, 960, 540},
		{"grouped", barChart(), 640, 400},
		{"grouped-log-many", &Chart{
			Title: "grouped log", XLabel: "user", YLabel: "jobs", Kind: GroupedBar, YScale: Log10,
			Categories: cats,
			Series: []Series{
				{Name: "A", Y: stackA},
				{Name: "C", Y: stackC},
			},
		}, 960, 540},
		{"grouped-all-zero", &Chart{
			Title: "empty bars", XLabel: "c", YLabel: "v", Kind: GroupedBar,
			Categories: []string{`"q"`, "<t>"},
			Series:     []Series{{Name: "z", Y: []float64{0, -1}}},
		}, 200, 150},
	}
}

// TestRenderGoldenDigest pins the bytes SVG and HTML produce over
// goldenCharts. The constant was recorded before the emitter rewrite, from
// the fmt-based renderer, so the append path must reproduce it exactly.
func TestRenderGoldenDigest(t *testing.T) {
	h := sha256.New()
	for _, g := range goldenCharts() {
		svg, err := SVG(g.c, g.w, g.h)
		if err != nil {
			t.Fatalf("%s: SVG: %v", g.name, err)
		}
		page, err := HTML(g.c, g.w, g.h)
		if err != nil {
			t.Fatalf("%s: HTML: %v", g.name, err)
		}
		fmt.Fprintf(h, "%s %d %d\n", g.name, len(svg), len(page))
		h.Write(svg)
		h.Write(page)
	}
	const want = "744a880ffababea1d9a96f2585d83d68486f906afe0f4bff745c5a15e9b909ae"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("render digest %s, want %s", got, want)
	}
}
