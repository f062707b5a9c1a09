package plot

import (
	"math"
	"strings"
	"testing"

	"slurmsight/internal/slurm"
)

func scatterChart() *Chart {
	return &Chart{
		Title: "Nodes vs elapsed", XLabel: "elapsed (s)", YLabel: "nodes",
		Kind: Scatter, XScale: Log10, YScale: Log10,
		Series: []Series{
			{Name: "COMPLETED", X: []float64{60, 3600, 86400}, Y: []float64{1, 128, 9000}, Marker: Dot},
			{Name: "FAILED", X: []float64{120, 7200}, Y: []float64{2, 64}, Marker: Plus, Color: "#d62728"},
		},
	}
}

func barChart() *Chart {
	return &Chart{
		Title: "States per user", XLabel: "user", YLabel: "jobs",
		Kind:       StackedBar,
		Categories: []string{"u1", "u2", "u3"},
		Series: []Series{
			{Name: "COMPLETED", Y: []float64{10, 5, 2}},
			{Name: "FAILED", Y: []float64{1, 4, 0}},
		},
	}
}

func TestValidate(t *testing.T) {
	if err := scatterChart().Validate(); err != nil {
		t.Errorf("valid scatter rejected: %v", err)
	}
	if err := barChart().Validate(); err != nil {
		t.Errorf("valid bar rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Chart)
	}{
		{"no title", func(c *Chart) { c.Title = "" }},
		{"no series", func(c *Chart) { c.Series = nil }},
		{"empty series", func(c *Chart) { c.Series[0].Y = nil }},
		{"xy mismatch", func(c *Chart) { c.Series[0].X = c.Series[0].X[:1] }},
		{"log zero x", func(c *Chart) { c.Series[0].X[0] = 0 }},
		{"log negative y", func(c *Chart) { c.Series[0].Y[0] = -1 }},
	}
	for _, tc := range cases {
		c := scatterChart()
		tc.mut(c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
	bad := barChart()
	bad.Series[0].Y = []float64{1}
	if err := bad.Validate(); err == nil {
		t.Error("category mismatch: want error")
	}
}

func TestSVGScatter(t *testing.T) {
	svg, err := SVG(scatterChart(), 800, 500)
	if err != nil {
		t.Fatal(err)
	}
	s := string(svg)
	for _, want := range []string{"<svg", "Nodes vs elapsed", "circle", "COMPLETED", "FAILED", "</svg>"} {
		if !strings.Contains(s, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// Plus markers render as line pairs.
	if !strings.Contains(s, "<line") {
		t.Error("plus marker lines missing")
	}
	// Log decade ticks.
	if !strings.Contains(s, ">1k<") {
		t.Errorf("log ticks missing")
	}
}

func TestSVGBars(t *testing.T) {
	svg, err := SVG(barChart(), 640, 400)
	if err != nil {
		t.Fatal(err)
	}
	s := string(svg)
	rects := strings.Count(s, "<rect")
	// background + frame + legend swatches (2) + bars (5 nonzero values)
	if rects < 9 {
		t.Errorf("too few rects: %d", rects)
	}
	if !strings.Contains(s, "u2") {
		t.Error("category labels missing")
	}
	grouped := barChart()
	grouped.Kind = GroupedBar
	if _, err := SVG(grouped, 640, 400); err != nil {
		t.Errorf("grouped bars: %v", err)
	}
}

func TestSVGLine(t *testing.T) {
	c := &Chart{
		Title: "volume", XLabel: "year", YLabel: "count", Kind: Line,
		Series: []Series{{Name: "jobs", X: []float64{2021, 2022, 2023}, Y: []float64{5, 9, 20}}},
	}
	svg, err := SVG(c, 640, 400)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(svg), "<polyline") {
		t.Error("line chart missing polyline")
	}
}

func TestSVGErrors(t *testing.T) {
	if _, err := SVG(&Chart{}, 800, 500); err == nil {
		t.Error("invalid chart: want error")
	}
	if _, err := SVG(scatterChart(), 50, 50); err == nil {
		t.Error("tiny canvas: want error")
	}
}

func TestXMLEscaping(t *testing.T) {
	c := scatterChart()
	c.Title = `wait < 100 & "quoted" > tail`
	svg, err := SVG(c, 800, 500)
	if err != nil {
		t.Fatal(err)
	}
	s := string(svg)
	if strings.Contains(s, `wait < 100`) {
		t.Error("unescaped < in output")
	}
	if !strings.Contains(s, "wait &lt; 100 &amp; &quot;quoted&quot; &gt; tail") {
		t.Error("escaped title missing")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	for _, c := range []*Chart{scatterChart(), barChart()} {
		data, err := c.JSON()
		if err != nil {
			t.Fatal(err)
		}
		got, err := FromJSON(data)
		if err != nil {
			t.Fatal(err)
		}
		if got.Title != c.Title || got.Kind != c.Kind || len(got.Series) != len(c.Series) {
			t.Errorf("round trip mismatch: %+v", got)
		}
		if got.XScale != c.XScale || got.YScale != c.YScale {
			t.Errorf("scales lost: %+v", got)
		}
	}
	if _, err := FromJSON([]byte(`{"title":""}`)); err == nil {
		t.Error("invalid spec: want error")
	}
	if _, err := FromJSON([]byte(`{"kind":"pie","title":"x"}`)); err == nil {
		t.Error("unknown kind: want error")
	}
	if _, err := FromJSON([]byte(`not json`)); err == nil {
		t.Error("garbage: want error")
	}
}

func TestHTMLEmbedsSpec(t *testing.T) {
	c := scatterChart()
	page, err := HTML(c, 800, 500)
	if err != nil {
		t.Fatal(err)
	}
	s := string(page)
	for _, want := range []string{"<!DOCTYPE html>", "<svg", "chart-spec", "wheel"} {
		if !strings.Contains(s, want) {
			t.Errorf("HTML missing %q", want)
		}
	}
	got, err := SpecFromHTML(page)
	if err != nil {
		t.Fatal(err)
	}
	if got.Title != c.Title || got.Points() != c.Points() {
		t.Errorf("recovered spec differs: %+v", got)
	}
	if _, err := SpecFromHTML([]byte("<html></html>")); err == nil {
		t.Error("page without spec: want error")
	}
}

func TestTicks(t *testing.T) {
	ts := niceTicks(0, 100, 5)
	if len(ts) < 3 {
		t.Fatalf("ticks = %v", ts)
	}
	for i := 1; i < len(ts); i++ {
		if ts[i] <= ts[i-1] {
			t.Errorf("ticks not increasing: %v", ts)
		}
	}
	lt := logTicks(5, 50000)
	if len(lt) < 4 || lt[0] > 5 || lt[len(lt)-1] < 50000 {
		t.Errorf("logTicks = %v", lt)
	}
	tick := func(v float64, timeAxis bool) string { return string(appendTick(nil, v, timeAxis)) }
	if got := tick(1500, false); got != "1.5k" {
		t.Errorf("appendTick(1500) = %q", got)
	}
	if got := tick(2e6, false); got != "2M" {
		t.Errorf("appendTick(2e6) = %q", got)
	}
	if got := tick(0, false); got != "0" {
		t.Errorf("appendTick(0) = %q", got)
	}
	day := tick(1710000000, true)
	if !strings.HasPrefix(day, "2024-") {
		t.Errorf("time tick = %q", day)
	}
	if math.IsNaN(niceTicks(5, 5, 4)[0]) {
		t.Error("degenerate range produced NaN")
	}
}

func TestStateColors(t *testing.T) {
	seen := map[string]slurm.State{}
	for _, st := range slurm.TerminalStates() {
		c := StateColor(st)
		if !strings.HasPrefix(c, "#") || len(c) != 7 {
			t.Errorf("StateColor(%v) = %q", st, c)
		}
		if prev, dup := seen[c]; dup && prev != st {
			// Only the catch-all grey may repeat, and it should not for
			// the primary terminal states.
			if c != "#7f7f7f" {
				t.Errorf("states %v and %v share color %s", prev, st, c)
			}
		}
		seen[c] = st
	}
}
