package plot

// The emitter is the SVG pen: each mark becomes one element, and each
// data mark ends with mark() so a page streams at a bounded footprint.

func (e *emitter) begin(width, height int) {
	e.s(`<svg xmlns="http://www.w3.org/2000/svg" width="`).d(width).s(`" height="`).d(height).
		s(`" viewBox="0 0 `).d(width).s(" ").d(height).s(`" font-family="sans-serif">`)
	e.s(`<rect width="`).d(width).s(`" height="`).d(height).s(`" fill="white"/>`)
}

func (e *emitter) end() {
	e.s("</svg>")
	e.mark()
}

// num appends a coordinate as %.1f when fixed is set, %g otherwise.
func (e *emitter) num(v float64, fixed bool) *emitter {
	if fixed {
		return e.f(v)
	}
	return e.g(v)
}

func (e *emitter) textOpen(st textStyle, x, y float64) {
	e.s(`<text x="`).num(x, st.fx).s(`" y="`).num(y, st.fy).s(`" font-size="`).d(st.size)
	if st.anchor != "" {
		e.s(`" text-anchor="`).s(st.anchor)
	}
	if st.rotate != 0 {
		e.s(`" transform="rotate(`).d(st.rotate).s(" ").num(x, st.fx).s(" ").num(y, st.fy).s(")")
	}
	e.s(`">`)
}

func (e *emitter) text(st textStyle, x, y float64, s string) {
	e.textOpen(st, x, y)
	e.x(s).s(`</text>`)
}

func (e *emitter) number(st textStyle, x, y, v float64, timeAxis bool) {
	e.textOpen(st, x, y)
	e.tick(v, timeAxis).s(`</text>`)
}

// rule prints the coordinate that moves with the data (x of a vertical
// rule, y of a horizontal one) as %.1f and the other as %g.
func (e *emitter) rule(x1, y1, x2, y2 float64, color string) {
	fx := x1 == x2
	e.s(`<line x1="`).num(x1, fx).s(`" y1="`).num(y1, !fx).s(`" x2="`).num(x2, fx).
		s(`" y2="`).num(y2, !fx).s(`" stroke="`).s(color).s(`"/>`)
}

func (e *emitter) frame(l, t, r, b float64) {
	e.s(`<rect x="`).g(l).s(`" y="`).g(t).s(`" width="`).g(r - l).s(`" height="`).g(b - t).
		s(`" fill="none" stroke="`).s(frameColor).s(`"/>`)
}

func (e *emitter) bar(x, y, w, h float64, color string, c *Chart, i, j int) {
	e.s(`<rect x="`).f(x).s(`" y="`).f(y).s(`" width="`).f(w).s(`" height="`).f(h).
		s(`" fill="`).s(color).s(`"><title>`).x(c.Categories[j]).s(" / ").x(c.Series[i].Name).
		s(": ").trim(c.Series[i].Y[j]).s("</title></rect>")
	e.mark()
}

func (e *emitter) point(m Marker, x, y float64, color string, tip bool, c *Chart, s *Series, j int) {
	switch m {
	case Plus:
		e.s(`<g stroke="`).s(color).s(`" stroke-width="`).g(plusStroke).s(`">`)
		e.tooltip(tip, c, s, j)
		e.s(`<line x1="`).f(x - plusArm).s(`" y1="`).f(y).s(`" x2="`).f(x + plusArm).s(`" y2="`).f(y).
			s(`"/><line x1="`).f(x).s(`" y1="`).f(y - plusArm).s(`" x2="`).f(x).s(`" y2="`).f(y + plusArm).s(`"/></g>`)
	case Square:
		e.s(`<rect x="`).f(x - squareSide/2).s(`" y="`).f(y - squareSide/2).s(`" width="`).g(squareSide).
			s(`" height="`).g(squareSide).s(`" fill="`).s(color).s(`" fill-opacity="0.6">`)
		e.tooltip(tip, c, s, j)
		e.s(`</rect>`)
	default:
		e.s(`<circle cx="`).f(x).s(`" cy="`).f(y).s(`" r="`).g(dotRadius).s(`" fill="`).s(color).
			s(`" fill-opacity="0.6">`)
		e.tooltip(tip, c, s, j)
		e.s(`</circle>`)
	}
	e.mark()
}

// tooltip emits point j's hover title when the chart is small enough to
// carry them.
func (e *emitter) tooltip(on bool, c *Chart, s *Series, j int) {
	if on {
		e.s("<title>").x(s.Name).s(": (").tick(s.X[j], c.XTime).s(", ").tick(s.Y[j], false).s(")</title>")
	}
}

// lineStart opens a polyline; lineTo appends its vertices.
func (e *emitter) lineStart(color string) {
	e.s(`<polyline fill="none" stroke="`).s(color).s(`" stroke-width="1.5" points="`)
	e.first = true
}

func (e *emitter) lineTo(x, y float64) {
	if !e.first {
		e.s(" ")
	}
	e.first = false
	e.f(x).s(",").f(y)
	e.mark()
}

func (e *emitter) lineEnd() { e.s(`"/>`) }

func (e *emitter) swatch(x, y float64, color string) {
	e.s(`<rect x="`).g(x).s(`" y="`).g(y).s(`" width="`).g(swatchSide).s(`" height="`).g(swatchSide).
		s(`" fill="`).s(color).s(`"/>`)
}
