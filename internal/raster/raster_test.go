package raster

import (
	"bytes"
	"image/png"
	"testing"

	"slurmsight/internal/plot"
)

func testChart() *plot.Chart {
	return &plot.Chart{
		Title: "Wait times", XLabel: "submit", YLabel: "wait (s)",
		Kind: plot.Scatter, YScale: plot.Log10,
		Series: []plot.Series{
			{Name: "COMPLETED", X: []float64{1, 2, 3}, Y: []float64{10, 100, 1000}, Color: "#2ca02c"},
			{Name: "FAILED", X: []float64{1.5, 2.5}, Y: []float64{50, 500}, Marker: plot.Plus, Color: "#d62728"},
		},
	}
}

func decode(t *testing.T, data []byte) (w, h int) {
	t.Helper()
	img, err := png.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("invalid PNG: %v", err)
	}
	b := img.Bounds()
	return b.Dx(), b.Dy()
}

func TestPNGScatter(t *testing.T) {
	data, err := PNG(testChart(), 640, 400)
	if err != nil {
		t.Fatal(err)
	}
	w, h := decode(t, data)
	if w != 640 || h != 400 {
		t.Errorf("dimensions = %dx%d", w, h)
	}
}

func TestPNGHasInk(t *testing.T) {
	data, err := PNG(testChart(), 640, 400)
	if err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	nonWhite := 0
	b := img.Bounds()
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			r, g, bl, _ := img.At(x, y).RGBA()
			if r != 0xFFFF || g != 0xFFFF || bl != 0xFFFF {
				nonWhite++
			}
		}
	}
	if nonWhite < 500 {
		t.Errorf("image nearly blank: %d non-white pixels", nonWhite)
	}
}

func TestPNGBarsAndLine(t *testing.T) {
	bars := &plot.Chart{
		Title: "States per user", XLabel: "user", YLabel: "jobs",
		Kind:       plot.StackedBar,
		Categories: []string{"u1", "u2"},
		Series: []plot.Series{
			{Name: "OK", Y: []float64{5, 3}},
			{Name: "FAIL", Y: []float64{1, 2}},
		},
	}
	if _, err := PNG(bars, 400, 300); err != nil {
		t.Errorf("stacked bars: %v", err)
	}
	bars.Kind = plot.GroupedBar
	if _, err := PNG(bars, 400, 300); err != nil {
		t.Errorf("grouped bars: %v", err)
	}
	line := &plot.Chart{
		Title: "Volume", XLabel: "year", YLabel: "jobs", Kind: plot.Line,
		Series: []plot.Series{{Name: "jobs", X: []float64{1, 2, 3}, Y: []float64{4, 5, 6}}},
	}
	if _, err := PNG(line, 400, 300); err != nil {
		t.Errorf("line: %v", err)
	}
}

func TestPNGErrors(t *testing.T) {
	if _, err := PNG(&plot.Chart{}, 640, 400); err == nil {
		t.Error("invalid chart: want error")
	}
	if _, err := PNG(testChart(), 10, 10); err == nil {
		t.Error("tiny canvas: want error")
	}
}
