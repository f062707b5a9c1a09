package plot

import (
	"fmt"
	"math"
)

// Geometry of the rendered figure.
const (
	marginLeft   = 70.0
	marginRight  = 140.0 // room for the legend
	marginTop    = 40.0
	marginBottom = 55.0
)

// Mark sizes, in pixels, which both pens draw at.
const (
	dotRadius  = 2.2 // Dot marker
	plusArm    = 3.0 // Plus marker, centre to tip
	plusStroke = 1.2 // Plus marker line width
	squareSide = 5.0 // Square marker
	swatchSide = 10.0
)

// Rule colours: the frame and the x axis' tick marks, and the gridlines.
const frameColor, gridColor = "#888", "#eee"

// tooltipLimit bounds how many marks get hover tooltips; beyond it the
// file size would dwarf the drawing.
const tooltipLimit = 4000

// pen draws what the layout walk places. The walk decides every position,
// range, tick, slot and colour; a pen only turns them into its medium:
// the emitter writes SVG elements, the canvas sets RGBA pixels. Its
// arguments are plain values, plus, for the SVG tooltips, the chart,
// series and point a mark stands for.
type pen interface {
	begin(width, height int)
	text(st textStyle, x, y float64, s string)
	// number writes an axis label: appendTick of v.
	number(st textStyle, x, y, v float64, timeAxis bool)
	// rule is a one-pixel line, vertical or horizontal.
	rule(x1, y1, x2, y2 float64, color string)
	frame(l, t, r, b float64)
	// bar is series i's bar over category j, value c.Series[i].Y[j].
	bar(x, y, w, h float64, color string, c *Chart, i, j int)
	// point is point j of series s, with its tooltip when tip is set.
	point(m Marker, x, y float64, color string, tip bool, c *Chart, s *Series, j int)
	lineStart(color string)
	lineTo(x, y float64)
	lineEnd()
	swatch(x, y float64, color string)
	end()
}

// textStyle is how one kind of label is set. Both pens honour size,
// anchor and rotation; fx and fy are the SVG's number format for the x
// and y attributes (%.1f when set, %g otherwise).
type textStyle struct {
	size   int
	anchor string // "" (start), "middle" or "end"
	rotate int    // degrees, clockwise on screen, about the anchor point
	fx, fy bool
}

// The labels a chart carries.
var (
	titleStyle    = textStyle{size: 16, anchor: "middle"}
	xTickStyle    = textStyle{size: 10, anchor: "middle", fx: true}
	yTickStyle    = textStyle{size: 10, anchor: "end", fy: true}
	categoryStyle = textStyle{size: 9, anchor: "end", rotate: -45, fx: true, fy: true}
	legendStyle   = textStyle{size: 11}
	xLabelStyle   = textStyle{size: 12, anchor: "middle"}
	yLabelStyle   = textStyle{size: 12, anchor: "middle", rotate: -90}
)

// axis maps data values to pixels under a scale.
type axis struct {
	lo, hi     float64 // data range
	tlo, span  float64 // lo and hi-lo under the scale
	pxLo, pxHi float64
	scale      Scale
}

func newAxis(lo, hi, pxLo, pxHi float64, scale Scale) axis {
	a := axis{lo: lo, hi: hi, pxLo: pxLo, pxHi: pxHi, scale: scale}
	a.tlo, a.span = a.at(lo), a.at(hi)-a.at(lo)
	return a
}

// at is v under the axis' scale.
func (a *axis) at(v float64) float64 {
	if a.scale == Log10 {
		return math.Log10(v)
	}
	return v
}

func (a *axis) pos(v float64) float64 {
	return a.pxLo + (a.at(v)-a.tlo)/a.span*(a.pxHi-a.pxLo)
}

// dataRange finds the extent of the chart's data on one dimension.
func dataRange(c *Chart, ofX bool) (float64, float64) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range c.Series {
		vals := c.Series[i].Y
		if ofX {
			vals = c.Series[i].X
		}
		for _, v := range vals {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	if math.IsInf(lo, 1) {
		return 0, 1
	}
	if lo == hi {
		hi = lo + 1
		if lo != 0 {
			lo, hi = lo-math.Abs(lo)*0.1, hi+math.Abs(hi)*0.1
		}
	}
	return lo, hi
}

// pad widens a range slightly so marks do not sit on the frame.
func pad(lo, hi float64, scale Scale) (float64, float64) {
	if scale == Log10 {
		return lo / 1.5, hi * 1.5
	}
	span := hi - lo
	return lo - 0.04*span, hi + 0.04*span
}

// checkCanvas is every error a rendering can return, checked before
// any byte is written.
func checkCanvas(c *Chart, width, height int) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if width < 200 || height < 150 {
		return fmt.Errorf("plot: canvas %dx%d too small", width, height)
	}
	return nil
}

// draw is the layout walk: it places every mark of a chart checkCanvas
// accepted and hands each to p, in the order the page paints them.
func draw(p pen, c *Chart, width, height int) {
	w, h := float64(width), float64(height)
	p.begin(width, height)
	p.text(titleStyle, w/2, 24, c.Title)

	plotL, plotR := marginLeft, w-marginRight
	plotT, plotB := marginTop, h-marginBottom

	switch c.Kind {
	case StackedBar, GroupedBar:
		drawBars(p, c, plotL, plotR, plotT, plotB)
	default:
		drawXY(p, c, plotL, plotR, plotT, plotB)
	}
	for i := range c.Series {
		x, y := plotR+12, plotT+float64(i)*18
		p.swatch(x, y, seriesColor(c, i))
		p.text(legendStyle, x+14, y+9, c.Series[i].Name)
	}
	p.text(xLabelStyle, (plotL+plotR)/2, h-12, c.XLabel)
	p.text(yLabelStyle, 16, (plotT+plotB)/2, c.YLabel)
	p.end()
}

// drawXY places scatter and line charts with full axes.
func drawXY(p pen, c *Chart, plotL, plotR, plotT, plotB float64) {
	xlo, xhi := dataRange(c, true)
	ylo, yhi := dataRange(c, false)
	xlo, xhi = pad(xlo, xhi, c.XScale)
	ylo, yhi = pad(ylo, yhi, c.YScale)
	if c.XScale == Log10 && xlo <= 0 {
		xlo = 1e-9
	}
	if c.YScale == Log10 && ylo <= 0 {
		ylo = 1e-9
	}
	xa := newAxis(xlo, xhi, plotL, plotR, c.XScale)
	ya := newAxis(ylo, yhi, plotB, plotT, c.YScale)

	p.frame(plotL, plotT, plotR, plotB)
	for _, v := range ticks(&xa, 7) {
		px := xa.pos(v)
		p.rule(px, plotB, px, plotB+4, frameColor)
		p.number(xTickStyle, px, plotB+16, v, c.XTime)
	}
	drawYTicks(p, &ya, plotL, plotR)

	tips := c.Points() <= tooltipLimit
	for i := range c.Series {
		s := &c.Series[i]
		color := seriesColor(c, i)
		if c.Kind == Line {
			p.lineStart(color)
			for j := range s.X {
				p.lineTo(xa.pos(s.X[j]), ya.pos(s.Y[j]))
			}
			p.lineEnd()
			continue
		}
		for j := range s.X {
			p.point(s.Marker, xa.pos(s.X[j]), ya.pos(s.Y[j]), color, tips, c, s, j)
		}
	}
}

// drawBars places stacked or grouped bar charts over categories.
func drawBars(p pen, c *Chart, plotL, plotR, plotT, plotB float64) {
	ncat := len(c.Categories)
	// Y range: tallest stack (stacked) or tallest bar (grouped).
	maxY := 0.0
	for j := 0; j < ncat; j++ {
		stack := 0.0
		for i := range c.Series {
			v := c.Series[i].Y[j]
			if c.Kind == StackedBar {
				stack += v
			} else if v > stack {
				stack = v
			}
		}
		if stack > maxY {
			maxY = stack
		}
	}
	if maxY <= 0 {
		maxY = 1
	}
	lo := 0.0
	if c.YScale == Log10 {
		lo = 0.5
	}
	ya := newAxis(lo, maxY*1.05, plotB, plotT, c.YScale)
	p.frame(plotL, plotT, plotR, plotB)
	drawYTicks(p, &ya, plotL, plotR)

	slot := (plotR - plotL) / float64(ncat)
	barW := slot * 0.7
	labelStride := (ncat + 29) / 30 // at most 30 labels
	for j := 0; j < ncat; j++ {
		x0 := plotL + float64(j)*slot + slot*0.15
		if j%labelStride == 0 {
			p.text(categoryStyle, x0+barW/2, plotB+12, c.Categories[j])
		}
		if c.Kind == StackedBar {
			base := 0.0
			for i := range c.Series {
				v := c.Series[i].Y[j]
				if v <= 0 {
					base += v
					continue
				}
				yTop := ya.pos(base + v)
				yBot := ya.pos(base)
				p.bar(x0, yTop, barW, yBot-yTop, seriesColor(c, i), c, i, j)
				base += v
			}
			continue
		}
		gw := barW / float64(len(c.Series))
		for i := range c.Series {
			v := c.Series[i].Y[j]
			if v <= 0 {
				continue
			}
			yTop := ya.pos(v)
			p.bar(x0+float64(i)*gw, yTop, gw*0.9, ya.pos(ya.lo)-yTop, seriesColor(c, i), c, i, j)
		}
	}
}

// drawYTicks places the y axis' gridlines and labels.
func drawYTicks(p pen, ya *axis, plotL, plotR float64) {
	for _, v := range ticks(ya, 6) {
		py := ya.pos(v)
		p.rule(plotL, py, plotR, py, gridColor)
		p.number(yTickStyle, plotL-6, py+3, v, false)
	}
}

// ticks returns an axis' tick values inside its range: decades on a log
// axis, about n niceTicks otherwise.
func ticks(a *axis, n int) []float64 {
	var all []float64
	if a.scale == Log10 {
		all = logTicks(a.lo, a.hi)
	} else {
		all = niceTicks(a.lo, a.hi, n)
	}
	in := all[:0]
	for _, v := range all {
		if !(v < a.lo || v > a.hi) {
			in = append(in, v)
		}
	}
	return in
}
