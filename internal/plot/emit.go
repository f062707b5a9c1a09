package plot

import (
	"io"
	"math"
	"strconv"
	"time"
)

// emitter is the render plane's one output path, the figure-side twin of
// the sacct text writer: one buffer that starts empty, grows by append,
// and is handed to w and reused each time it passes flushAt, so a page
// streams to disk at a bounded footprint whatever its point count. The
// first write error sticks: later output is dropped and flush reports it.
//
// The appenders chain and each names the format verb it replaces, so the
// bytes are fmt's: f is %.1f, g is %g, d is %d, s is %s and x is %s of an
// XML-escaped label.
type emitter struct {
	w     io.Writer
	buf   []byte
	err   error
	first bool // the open polyline has no vertex yet
}

const flushAt = 1 << 16

func (e *emitter) s(v string) *emitter { e.buf = append(e.buf, v...); return e }

func (e *emitter) f(v float64) *emitter { e.buf = strconv.AppendFloat(e.buf, v, 'f', 1, 64); return e }

func (e *emitter) g(v float64) *emitter { e.buf = strconv.AppendFloat(e.buf, v, 'g', -1, 64); return e }

func (e *emitter) d(v int) *emitter { e.buf = strconv.AppendInt(e.buf, int64(v), 10); return e }

func (e *emitter) x(v string) *emitter { e.buf = appendEsc(e.buf, v); return e }

// tick appends an axis or tooltip label (see appendTick).
func (e *emitter) tick(v float64, timeAxis bool) *emitter {
	e.buf = appendTick(e.buf, v, timeAxis)
	return e
}

// trim appends a bar value (see appendTrimF).
func (e *emitter) trim(v float64) *emitter { e.buf = appendTrimF(e.buf, v); return e }

// mark ends one element: past flushAt the buffer goes to the sink.
func (e *emitter) mark() {
	if len(e.buf) > flushAt {
		e.flush()
	}
}

// flush hands the buffer to the sink and returns the sticky error.
func (e *emitter) flush() error {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
	return e.err
}

// embed appends a JSON spec with every "</" written as "<\/", so the
// spec cannot close the <script> element that holds it. It takes the
// spec a buffer's room at a time, so the buffer stays near flushAt
// however large the spec.
func (e *emitter) embed(spec []byte) {
	for start := 0; start < len(spec); {
		end := min(start+max(flushAt-len(e.buf), 1<<10), len(spec))
		for i := start; i < end; i++ {
			if spec[i] == '<' && i+1 < len(spec) && spec[i+1] == '/' {
				e.buf = append(append(e.buf, spec[start:i+1]...), '\\')
				start = i + 1
			}
		}
		e.buf = append(e.buf, spec[start:end]...)
		start = end
		e.mark()
	}
}

// appendEsc appends s with the XML-special characters of labels escaped.
func appendEsc(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '&':
			dst = append(dst, "&amp;"...)
		case '<':
			dst = append(dst, "&lt;"...)
		case '>':
			dst = append(dst, "&gt;"...)
		case '"':
			dst = append(dst, "&quot;"...)
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// appendTick appends an axis label compactly: a UTC date on a time axis,
// otherwise the value with a G/M/k suffix, in exponent form below 0.01.
func appendTick(dst []byte, v float64, timeAxis bool) []byte {
	if timeAxis {
		return time.Unix(int64(v), 0).UTC().AppendFormat(dst, "2006-01-02")
	}
	av := math.Abs(v)
	switch {
	case v == 0:
		return append(dst, '0')
	case av >= 1e9:
		return append(appendTrimF(dst, v/1e9), 'G')
	case av >= 1e6:
		return append(appendTrimF(dst, v/1e6), 'M')
	case av >= 1e3:
		return append(appendTrimF(dst, v/1e3), 'k')
	case av < 0.01:
		return strconv.AppendFloat(dst, v, 'e', 1, 64)
	default:
		return appendTrimF(dst, v)
	}
}

// appendTrimF appends v to two decimals without trailing zeros or point.
func appendTrimF(dst []byte, v float64) []byte {
	n := len(dst)
	dst = strconv.AppendFloat(dst, v, 'f', 2, 64)
	for len(dst) > n && dst[len(dst)-1] == '0' {
		dst = dst[:len(dst)-1]
	}
	if len(dst) > n && dst[len(dst)-1] == '.' {
		dst = dst[:len(dst)-1]
	}
	return dst
}
