package plot

import (
	"bytes"
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

// tooltipLimit bounds how many marks get hover tooltips; beyond it the
// file size would dwarf the drawing.
const tooltipLimit = 4000

// axis maps data values to pixels under a scale.
type axis struct {
	lo, hi  float64
	pxLo    float64
	pxHi    float64
	scale   Scale
	flipped bool // y axes grow downward in SVG
}

func (a *axis) pos(v float64) float64 {
	lo, hi, x := a.lo, a.hi, v
	if a.scale == Log10 {
		lo, hi, x = math.Log10(lo), math.Log10(hi), math.Log10(v)
	}
	f := (x - lo) / (hi - lo)
	if a.flipped {
		f = 1 - f
	}
	return a.pxLo + f*(a.pxHi-a.pxLo)
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

// SVG renders the chart to a standalone SVG document.
func SVG(c *Chart, width, height int) ([]byte, error) {
	if err := checkCanvas(c, width, height); err != nil {
		return nil, err
	}
	var doc bytes.Buffer
	e := emitter{w: &doc}
	e.svg(c, width, height)
	if err := e.flush(); err != nil {
		return nil, err
	}
	return doc.Bytes(), nil
}

// svg emits the SVG document of a chart checkCanvas accepted.
func (e *emitter) svg(c *Chart, width, height int) {
	w, h := float64(width), float64(height)
	e.s(`<svg xmlns="http://www.w3.org/2000/svg" width="`).d(width).s(`" height="`).d(height).
		s(`" viewBox="0 0 `).d(width).s(" ").d(height).s(`" font-family="sans-serif">`)
	e.s(`<rect width="`).d(width).s(`" height="`).d(height).s(`" fill="white"/>`)
	e.s(`<text x="`).g(w / 2).s(`" y="24" font-size="16" text-anchor="middle">`).x(c.Title).s(`</text>`)

	plotL, plotR := marginLeft, w-marginRight
	plotT, plotB := marginTop, h-marginBottom

	switch c.Kind {
	case StackedBar, GroupedBar:
		e.bars(c, plotL, plotR, plotT, plotB)
	default:
		e.xy(c, plotL, plotR, plotT, plotB)
	}
	e.legend(c, plotR+12, plotT)

	// Axis titles.
	e.s(`<text x="`).g((plotL + plotR) / 2).s(`" y="`).g(h - 12).s(`" font-size="12" text-anchor="middle">`).
		x(c.XLabel).s(`</text>`)
	e.s(`<text x="16" y="`).g((plotT + plotB) / 2).s(`" font-size="12" text-anchor="middle" transform="rotate(-90 16 `).
		g((plotT + plotB) / 2).s(`)">`).x(c.YLabel).s(`</text>`)

	e.s("</svg>")
	e.mark()
}

// xy draws scatter and line charts with full axes.
func (e *emitter) xy(c *Chart, plotL, plotR, plotT, plotB float64) {
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
	xa := &axis{lo: xlo, hi: xhi, pxLo: plotL, pxHi: plotR, scale: c.XScale}
	ya := &axis{lo: ylo, hi: yhi, pxLo: plotB, pxHi: plotT, scale: c.YScale}

	e.frame(plotL, plotR, plotT, plotB)
	e.xTicks(c, xa, plotB)
	e.yTicks(c, ya, plotL, plotR)

	tooltips := c.Points() <= tooltipLimit
	for i := range c.Series {
		s := &c.Series[i]
		color := seriesColor(c, i)
		if c.Kind == Line {
			e.s(`<polyline fill="none" stroke="`).s(color).s(`" stroke-width="1.5" points="`)
			for j := range s.X {
				if j > 0 {
					e.s(" ")
				}
				e.f(xa.pos(s.X[j])).s(",").f(ya.pos(s.Y[j]))
				e.mark()
			}
			e.s(`"/>`)
			continue
		}
		for j := range s.X {
			px, py := xa.pos(s.X[j]), ya.pos(s.Y[j])
			switch s.Marker {
			case Plus:
				e.s(`<g stroke="`).s(color).s(`" stroke-width="1.2">`)
				e.tooltip(tooltips, c, s, j)
				e.s(`<line x1="`).f(px - 3).s(`" y1="`).f(py).s(`" x2="`).f(px + 3).s(`" y2="`).f(py).
					s(`"/><line x1="`).f(px).s(`" y1="`).f(py - 3).s(`" x2="`).f(px).s(`" y2="`).f(py + 3).s(`"/></g>`)
			case Square:
				e.s(`<rect x="`).f(px - 2.5).s(`" y="`).f(py - 2.5).s(`" width="5" height="5" fill="`).s(color).
					s(`" fill-opacity="0.6">`)
				e.tooltip(tooltips, c, s, j)
				e.s(`</rect>`)
			default:
				e.s(`<circle cx="`).f(px).s(`" cy="`).f(py).s(`" r="2.2" fill="`).s(color).s(`" fill-opacity="0.6">`)
				e.tooltip(tooltips, c, s, j)
				e.s(`</circle>`)
			}
			e.mark()
		}
	}
}

// tooltip emits point j's hover title when the chart is small enough to
// carry them.
func (e *emitter) tooltip(on bool, c *Chart, s *Series, j int) {
	if on {
		e.s("<title>").x(s.Name).s(": (").tick(s.X[j], c.XTime).s(", ").tick(s.Y[j], false).s(")</title>")
	}
}

// bars draws stacked or grouped bar charts over categories.
func (e *emitter) bars(c *Chart, plotL, plotR, plotT, plotB float64) {
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
	ya := &axis{lo: 0, hi: maxY * 1.05, pxLo: plotB, pxHi: plotT, scale: c.YScale}
	if c.YScale == Log10 {
		ya.lo = 0.5
	}
	e.frame(plotL, plotR, plotT, plotB)
	e.yTicks(c, ya, plotL, plotR)

	slot := (plotR - plotL) / float64(ncat)
	barW := slot * 0.7
	maxLabels := 30
	labelStride := (ncat + maxLabels - 1) / maxLabels
	for j := 0; j < ncat; j++ {
		x0 := plotL + float64(j)*slot + slot*0.15
		if j%labelStride == 0 {
			e.s(`<text x="`).f(x0 + barW/2).s(`" y="`).f(plotB + 12).
				s(`" font-size="9" text-anchor="end" transform="rotate(-45 `).f(x0 + barW/2).s(" ").f(plotB + 12).
				s(`)">`).x(c.Categories[j]).s(`</text>`)
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
				e.bar(c, i, j, v, x0, yTop, barW, yBot-yTop)
				base += v
			}
			e.mark()
			continue
		}
		gw := barW / float64(len(c.Series))
		for i := range c.Series {
			v := c.Series[i].Y[j]
			if v <= 0 {
				continue
			}
			yTop := ya.pos(v)
			e.bar(c, i, j, v, x0+float64(i)*gw, yTop, gw*0.9, ya.pos(ya.lo)-yTop)
		}
		e.mark()
	}
}

// bar emits series i's bar over category j, with its hover title.
func (e *emitter) bar(c *Chart, i, j int, v, x, y, w, h float64) {
	e.s(`<rect x="`).f(x).s(`" y="`).f(y).s(`" width="`).f(w).s(`" height="`).f(h).
		s(`" fill="`).s(seriesColor(c, i)).s(`"><title>`).x(c.Categories[j]).s(" / ").x(c.Series[i].Name).
		s(": ").trim(v).s("</title></rect>")
}

func (e *emitter) frame(l, r, t, bot float64) {
	e.s(`<rect x="`).g(l).s(`" y="`).g(t).s(`" width="`).g(r - l).s(`" height="`).g(bot - t).
		s(`" fill="none" stroke="#888"/>`)
}

func (e *emitter) xTicks(c *Chart, xa *axis, plotB float64) {
	var ticks []float64
	if c.XScale == Log10 {
		ticks = logTicks(xa.lo, xa.hi)
	} else {
		ticks = niceTicks(xa.lo, xa.hi, 7)
	}
	for _, v := range ticks {
		if v < xa.lo || v > xa.hi {
			continue
		}
		px := xa.pos(v)
		e.s(`<line x1="`).f(px).s(`" y1="`).g(plotB).s(`" x2="`).f(px).s(`" y2="`).g(plotB + 4).s(`" stroke="#888"/>`)
		e.s(`<text x="`).f(px).s(`" y="`).g(plotB+16).s(`" font-size="10" text-anchor="middle">`).
			tick(v, c.XTime).s(`</text>`)
	}
}

func (e *emitter) yTicks(c *Chart, ya *axis, plotL, plotR float64) {
	var ticks []float64
	if c.YScale == Log10 {
		ticks = logTicks(ya.lo, ya.hi)
	} else {
		ticks = niceTicks(ya.lo, ya.hi, 6)
	}
	for _, v := range ticks {
		if v < ya.lo || v > ya.hi {
			continue
		}
		py := ya.pos(v)
		e.s(`<line x1="`).g(plotL).s(`" y1="`).f(py).s(`" x2="`).g(plotR).s(`" y2="`).f(py).s(`" stroke="#eee"/>`)
		e.s(`<text x="`).g(plotL-6).s(`" y="`).f(py+3).s(`" font-size="10" text-anchor="end">`).
			tick(v, false).s(`</text>`)
	}
}

func (e *emitter) legend(c *Chart, x, y float64) {
	for i := range c.Series {
		py := y + float64(i)*18
		e.s(`<rect x="`).g(x).s(`" y="`).g(py).s(`" width="10" height="10" fill="`).s(seriesColor(c, i)).s(`"/>`)
		e.s(`<text x="`).g(x + 14).s(`" y="`).g(py + 9).s(`" font-size="11">`).x(c.Series[i].Name).s(`</text>`)
	}
}
