package plot

import (
	"bytes"
	"image"
	"image/color"
	"image/png"
	"math"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// PNG rasterises the chart: the layout walk that writes the page's SVG
// paints the same marks on an RGBA canvas, so the picture handed to the
// LLM is the figure the analyst sees. It stands in for the paper's
// headless-browser screenshot.
func PNG(c *Chart, width, height int) ([]byte, error) {
	if err := checkCanvas(c, width, height); err != nil {
		return nil, err
	}
	var cv canvas
	draw(&cv, c, width, height)
	var buf bytes.Buffer
	if err := png.Encode(&buf, cv.img); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// canvas is the raster pen. A pixel belongs to a filled mark when its
// centre lies inside the mark, and a mark too thin to hold a centre still
// gets the pixel under its middle. Lines are one pixel wide. Marks are
// painted at full strength: the fill-opacity that lightens the page's
// dots and squares is the SVG's alone. Text is the 5×7 font, scaled to
// the SVG font size (one pixel per dot up to size 14, two from 15),
// anchored and turned about the SVG's point.
type canvas struct {
	img *image.RGBA

	colorName string     // the colour string last parsed
	color     color.RGBA // and its value
	label     []byte     // a number label's text
	run       textRun    // the label being drawn

	ink   color.RGBA // the open polyline's colour,
	x, y  int        // its last vertex,
	drawn bool       // if it has one
}

// textRun places a label's glyphs: the first glyph's top-left corner, the
// direction the baseline runs and the pixels per font dot.
type textRun struct {
	x, y, cos, sin, scale float64
}

var black = color.RGBA{0, 0, 0, 0xFF}

func (cv *canvas) begin(width, height int) {
	cv.img = image.NewRGBA(image.Rect(0, 0, width, height))
	pix := cv.img.Pix // white background, opaque alpha
	pix[0] = 0xFF
	for n := 1; n < len(pix); n *= 2 {
		copy(pix[n:], pix[:n])
	}
	cv.colorName, cv.color = "", black
}

func (cv *canvas) end()     {}
func (cv *canvas) lineEnd() {}

// rgba parses a colour, remembering the last one: a series hands the
// same string for every mark.
func (cv *canvas) rgba(s string) color.RGBA {
	if s != cv.colorName {
		cv.colorName, cv.color = s, parseColor(s)
	}
	return cv.color
}

func (cv *canvas) text(st textStyle, x, y float64, s string) {
	cv.startText(st, x, y, utf8.RuneCountInString(s))
	k := 0
	for _, r := range s {
		cv.glyph(k, r)
		k++
	}
}

func (cv *canvas) number(st textStyle, x, y, v float64, timeAxis bool) {
	cv.label = appendTick(cv.label[:0], v, timeAxis)
	cv.startText(st, x, y, len(cv.label))
	for k, b := range cv.label {
		cv.glyph(k, rune(b))
	}
}

// startText sets up an n-glyph label whose baseline passes through (x, y)
// at st's anchor, turned by st.rotate about that point.
func (cv *canvas) startText(st textStyle, x, y float64, n int) {
	scale := float64(max(1, (st.size+5)/10))
	u, v := 0.0, -glyphH*scale
	width := float64(n*glyphW-1) * scale
	switch st.anchor {
	case "middle":
		u = -width / 2
	case "end":
		u = -width
	}
	sin, cos := math.Sincos(float64(st.rotate) * math.Pi / 180)
	cv.run = textRun{x: math.Round(x + u*cos - v*sin), y: math.Round(y + u*sin + v*cos), cos: cos, sin: sin, scale: scale}
}

// glyph draws r as the k-th character of the current label; runes the
// font lacks draw as a dash. Each lit font dot is a scale×scale cell,
// painted at four sample points per pixel so turned strokes have no gaps.
func (cv *canvas) glyph(k int, r rune) {
	g, ok := glyphs[unicode.ToUpper(r)]
	if !ok {
		g = glyphs['-']
	}
	t := &cv.run
	for row := 0; row < glyphH; row++ {
		for bit := 0; bit < 5; bit++ {
			if g[row]&(0x10>>bit) == 0 {
				continue
			}
			u0, v0 := float64(k*glyphW+bit)*t.scale, float64(row)*t.scale
			for u := u0 + 0.25; u < u0+t.scale; u += 0.5 {
				for v := v0 + 0.25; v < v0+t.scale; v += 0.5 {
					cv.set(int(math.Floor(t.x+u*t.cos-v*t.sin)), int(math.Floor(t.y+u*t.sin+v*t.cos)), black)
				}
			}
		}
	}
}

func (cv *canvas) rule(x1, y1, x2, y2 float64, color string) {
	cv.line(cv.pix(x1), cv.pix(y1), cv.pix(x2), cv.pix(y2), cv.rgba(color))
}

func (cv *canvas) frame(l, t, r, b float64) {
	cv.rule(l, t, r, t, frameColor)
	cv.rule(r, t, r, b, frameColor)
	cv.rule(r, b, l, b, frameColor)
	cv.rule(l, b, l, t, frameColor)
}

func (cv *canvas) bar(x, y, w, h float64, color string, _ *Chart, _, _ int) {
	cv.fill(x, y, x+w, y+h, cv.rgba(color))
}

func (cv *canvas) point(m Marker, x, y float64, color string, _ bool, _ *Chart, _ *Series, _ int) {
	col := cv.rgba(color)
	switch m {
	case Plus:
		cv.fill(x-plusArm, y-plusStroke/2, x+plusArm, y+plusStroke/2, col)
		cv.fill(x-plusStroke/2, y-plusArm, x+plusStroke/2, y+plusArm, col)
	case Square:
		cv.fill(x-squareSide/2, y-squareSide/2, x+squareSide/2, y+squareSide/2, col)
	default:
		cv.disc(x, y, dotRadius, col)
	}
}

func (cv *canvas) lineStart(color string) { cv.ink, cv.drawn = cv.rgba(color), false }

// lineTo draws to the vertex from the last one; a NaN vertex breaks the
// line, as it blanks the page's.
func (cv *canvas) lineTo(x, y float64) {
	if math.IsNaN(x) || math.IsNaN(y) {
		cv.drawn = false
		return
	}
	px, py := cv.pix(x), cv.pix(y)
	if !cv.drawn {
		cv.x, cv.y = px, py
	}
	cv.line(cv.x, cv.y, px, py, cv.ink)
	cv.x, cv.y, cv.drawn = px, py, true
}

func (cv *canvas) swatch(x, y float64, color string) {
	cv.fill(x, y, x+swatchSide, y+swatchSide, cv.rgba(color))
}

// pix is the pixel index holding coordinate v, held within a pixel of the
// canvas so that no line runs unbounded.
func (cv *canvas) pix(v float64) int {
	if !(v > -1) {
		return -1
	}
	return int(math.Floor(min(v, float64(max(cv.img.Rect.Dx(), cv.img.Rect.Dy())))))
}

func (cv *canvas) set(x, y int, col color.RGBA) {
	if image.Pt(x, y).In(cv.img.Rect) {
		cv.img.SetRGBA(x, y, col)
	}
}

// line draws with Bresenham's algorithm.
func (cv *canvas) line(x0, y0, x1, y1 int, col color.RGBA) {
	dx, dy := max(x1-x0, x0-x1), -max(y1-y0, y0-y1)
	sx, sy := 1, 1
	if x0 >= x1 {
		sx = -1
	}
	if y0 >= y1 {
		sy = -1
	}
	err := dx + dy
	for {
		cv.set(x0, y0, col)
		if x0 == x1 && y0 == y1 {
			return
		}
		e2 := 2 * err
		if e2 >= dy {
			err += dy
			x0 += sx
		}
		if e2 <= dx {
			err += dx
			y0 += sy
		}
	}
}

// fill paints the pixels whose centres lie in the rectangle with corners
// (x0, y0) and (x1, y1).
func (cv *canvas) fill(x0, y0, x1, y1 float64, col color.RGBA) {
	i0, i1 := cover(x0, x1, cv.img.Rect.Dx())
	j0, j1 := cover(y0, y1, cv.img.Rect.Dy())
	for j := j0; j < j1; j++ {
		for i := i0; i < i1; i++ {
			cv.img.SetRGBA(i, j, col)
		}
	}
}

// cover returns the pixels [lo, hi) whose centres lie in [a, b], or the
// one under the middle when none does, clipped to [0, n).
func cover(a, b float64, n int) (int, int) {
	if a > b {
		a, b = b, a
	}
	lo, hi := math.Ceil(a-0.5), math.Floor(b-0.5)+1
	if hi <= lo {
		lo = math.Floor((a + b) / 2)
		hi = lo + 1
	}
	lo, hi = max(lo, 0), min(hi, float64(n))
	if !(lo < hi) {
		return 0, 0
	}
	return int(lo), int(hi)
}

// disc paints the pixels whose centres lie within r of (cx, cy).
func (cv *canvas) disc(cx, cy, r float64, col color.RGBA) {
	i0, i1 := cover(cx-r, cx+r, cv.img.Rect.Dx())
	j0, j1 := cover(cy-r, cy+r, cv.img.Rect.Dy())
	for j := j0; j < j1; j++ {
		for i := i0; i < i1; i++ {
			if dx, dy := float64(i)+0.5-cx, float64(j)+0.5-cy; dx*dx+dy*dy <= r*r {
				cv.img.SetRGBA(i, j, col)
			}
		}
	}
}

// parseColor reads "#rrggbb" or "#rgb"; anything else is black.
func parseColor(s string) color.RGBA {
	if len(s) == 4 && s[0] == '#' {
		s = string([]byte{'#', s[1], s[1], s[2], s[2], s[3], s[3]})
	}
	if len(s) == 7 && s[0] == '#' {
		r, err1 := strconv.ParseUint(s[1:3], 16, 8)
		g, err2 := strconv.ParseUint(s[3:5], 16, 8)
		b, err3 := strconv.ParseUint(s[5:7], 16, 8)
		if err1 == nil && err2 == nil && err3 == nil {
			return color.RGBA{uint8(r), uint8(g), uint8(b), 0xFF}
		}
	}
	return black
}
