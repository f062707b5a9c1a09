package plot

import (
	"bytes"
	"image/color"
	"image/png"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// pageCharts cover every Kind, every Marker (and the empty default) and
// both scales on each axis, with marks far enough apart that none covers
// another's centre.
func pageCharts() map[string]*Chart {
	return map[string]*Chart{
		"scatter-linear": {
			Title: "Markers", XLabel: "x", YLabel: "y", Kind: Scatter,
			Series: []Series{
				{Name: "dot", X: []float64{0, 40}, Y: []float64{0, 10}, Marker: Dot},
				{Name: "default", X: []float64{10, 50}, Y: []float64{30, 45}},
				{Name: "plus", X: []float64{20, 60}, Y: []float64{60, 20}, Marker: Plus, Color: "#d62728"},
				{Name: "square", X: []float64{30, 70}, Y: []float64{90, 75}, Marker: Square},
			},
		},
		"scatter-log-log": scatterChart(),
		"scatter-time-log": {
			Title: "Waits", XLabel: "submit", YLabel: "wait (s)", Kind: Scatter, YScale: Log10, XTime: true,
			Series: []Series{
				{Name: "COMPLETED", X: []float64{1704067200, 1704240000}, Y: []float64{5, 50000}, Color: "#2ca02c"},
				{Name: "FAILED", X: []float64{1704153600, 1704326400}, Y: []float64{300, 20}, Marker: Square, Color: "#d62728"},
			},
		},
		"line-linear-log": {
			Title: "Volume", XLabel: "month", YLabel: "jobs", Kind: Line, YScale: Log10,
			Series: []Series{
				{Name: "jobs", X: []float64{1, 2, 3, 4}, Y: []float64{1000, 3000, 2000, 9000}},
				{Name: "steps", X: []float64{1, 2, 3, 4}, Y: []float64{10, 20, 15, 40}},
			},
		},
		"line-log-linear": {
			Title: "Scaling", XLabel: "nodes", YLabel: "hours", Kind: Line, XScale: Log10,
			Series: []Series{{Name: "walltime", X: []float64{1, 10, 100, 1000}, Y: []float64{2, 6, 3, 8}}},
		},
		"stacked-linear": barChart(),
		"grouped-log": {
			Title: "Jobs per system", XLabel: "state", YLabel: "jobs", Kind: GroupedBar, YScale: Log10,
			Categories: []string{"COMPLETED", "FAILED", "TIMEOUT"},
			Series: []Series{
				{Name: "frontier", Y: []float64{90000, 300, 45}},
				{Name: "andes", Y: []float64{40000, 1200, 0}},
			},
		},
	}
}

var (
	circleRE = regexp.MustCompile(`<circle cx="([^"]+)" cy="([^"]+)" r="[^"]+" fill="([^"]+)"`)
	rectRE   = regexp.MustCompile(`<rect x="([^"]+)" y="([^"]+)" width="([^"]+)" height="([^"]+)" fill="(#[^"]+)"`)
	plusRE   = regexp.MustCompile(`<g stroke="([^"]+)" stroke-width="[^"]+">(?:<title>[^<]*</title>)?<line x1="([^"]+)" y1="([^"]+)" x2="([^"]+)"`)
	lineRE   = regexp.MustCompile(`<polyline fill="none" stroke="([^"]+)" stroke-width="[^"]+" points="([^"]+)"`)
)

// TestPNGIsThePage holds the raster to the page: at the centre of every
// marker, bar and legend swatch SVG places, the PNG has that mark's fill,
// and every polyline vertex lies on its stroke.
func TestPNGIsThePage(t *testing.T) {
	const w, h = 640, 400
	for name, c := range pageCharts() {
		svg, err := SVG(c, w, h)
		if err != nil {
			t.Fatal(err)
		}
		data, err := PNG(c, w, h)
		if err != nil {
			t.Fatal(err)
		}
		img, err := png.Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: invalid PNG: %v", name, err)
		}
		if b := img.Bounds(); b.Dx() != w || b.Dy() != h {
			t.Fatalf("%s: PNG is %dx%d, page is %dx%d", name, b.Dx(), b.Dy(), w, h)
		}
		num := func(s string) float64 {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				t.Fatalf("%s: coordinate %q: %v", name, s, err)
			}
			return v
		}
		marks := 0
		check := func(what string, x, y float64, fill string, near int) {
			marks++
			want := parseColor(fill)
			px, py := int(x), int(y)
			for dy := -near; dy <= near; dy++ {
				for dx := -near; dx <= near; dx++ {
					if sameColor(img.At(px+dx, py+dy), want) {
						return
					}
				}
			}
			t.Errorf("%s: %s at (%.1f, %.1f): pixel is %v, want its fill %s", name, what, x, y, img.At(px, py), fill)
		}
		doc := string(svg)
		for _, m := range circleRE.FindAllStringSubmatch(doc, -1) {
			check("dot", num(m[1]), num(m[2]), m[3], 0)
		}
		for _, m := range rectRE.FindAllStringSubmatch(doc, -1) {
			check("rect", num(m[1])+num(m[3])/2, num(m[2])+num(m[4])/2, m[5], 0)
		}
		for _, m := range plusRE.FindAllStringSubmatch(doc, -1) {
			check("plus", (num(m[2])+num(m[4]))/2, num(m[3]), m[1], 0)
		}
		for _, m := range lineRE.FindAllStringSubmatch(doc, -1) {
			for _, xy := range strings.Fields(m[2]) {
				x, y, _ := strings.Cut(xy, ",")
				// The page prints a vertex to a tenth, so its pixel may
				// be the stroke's neighbour.
				check("vertex", num(x), num(y), m[1], 1)
			}
		}
		if marks < len(c.Series)+2 {
			t.Errorf("%s: only %d marks found in the page", name, marks)
		}
	}
}

func sameColor(a, b color.Color) bool {
	r1, g1, b1, a1 := a.RGBA()
	r2, g2, b2, a2 := b.RGBA()
	return r1 == r2 && g1 == g2 && b1 == b2 && a1 == a2
}

func TestParseColor(t *testing.T) {
	c := parseColor("#2ca02c")
	if c.R != 0x2c || c.G != 0xa0 || c.B != 0x2c {
		t.Errorf("parseColor = %+v", c)
	}
	if parseColor("red") != black {
		t.Error("invalid colors should fall back to black")
	}
	if parseColor("#zzzzzz") != black {
		t.Error("bad hex should fall back to black")
	}
}

func TestCanvasPrimitives(t *testing.T) {
	var cv canvas
	cv.begin(20, 20)
	cv.set(-5, -5, black) // out of bounds must be a no-op
	cv.line(0, 0, 19, 19, black)
	cv.disc(10, 10, 3, black)
	cv.text(legendStyle, 1, 8, "A1?") // '?' falls back to a dash glyph
	found := false
	for _, p := range cv.img.Pix {
		if p != 0xFF {
			found = true
			break
		}
	}
	if !found {
		t.Error("primitives drew nothing")
	}
}

func BenchmarkPNG(b *testing.B) {
	c := bigScatter(20000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := PNG(c, 960, 540); err != nil {
			b.Fatal(err)
		}
	}
}
