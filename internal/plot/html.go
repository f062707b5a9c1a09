package plot

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// WriteHTML streams the chart as a self-contained interactive page to
// w: wheel zoom, drag pan, double-click reset — the lightweight stand-in
// for Plotly's interactive HTML output. The chart spec is embedded as
// JSON in a <script> block so downstream tooling (the LLM stage, tests)
// can recover the exact data from the artifact. Every check runs before
// the first byte is written, the spec is marshalled once, and WriteHTML
// returns it — the same bytes Chart.JSON gives — for the caller's .json
// artifact. The page itself is never whole in memory.
func WriteHTML(w io.Writer, c *Chart, width, height int) (spec []byte, err error) {
	if err = checkCanvas(c, width, height); err != nil {
		return nil, err
	}
	if spec, err = json.MarshalIndent(c, "", " "); err != nil {
		return nil, err
	}
	e := emitter{w: w}
	e.s(pageHead).x(c.Title).s(pageStyle)
	e.svg(c, width, height)
	e.s(pageSpecOpen)
	e.embed(spec)
	e.s(pageTail)
	return spec, e.flush()
}

// HTML returns the page WriteHTML streams.
func HTML(c *Chart, width, height int) ([]byte, error) {
	var page bytes.Buffer
	if _, err := WriteHTML(&page, c, width, height); err != nil {
		return nil, err
	}
	return page.Bytes(), nil
}

// The fixed text of a page, around its title, SVG and spec.
const (
	pageHead  = "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>"
	pageStyle = `</title><style>
body { font-family: sans-serif; margin: 1em; }
#chart { border: 1px solid #ddd; cursor: grab; }
#hint { color: #777; font-size: 12px; }
</style></head><body>
<div id="chart">`
	pageSpecOpen = `</div>
<p id="hint">wheel: zoom &middot; drag: pan &middot; double-click: reset &middot; hover points for values</p>
<script type="application/json" id="chart-spec">
`
	pageTail = `
</script>
<script>
(function () {
  var svg = document.querySelector('#chart svg');
  var vb = svg.getAttribute('viewBox').split(' ').map(Number);
  var orig = vb.slice();
  function apply() { svg.setAttribute('viewBox', vb.join(' ')); }
  svg.addEventListener('wheel', function (e) {
    e.preventDefault();
    var f = e.deltaY < 0 ? 0.85 : 1/0.85;
    var r = svg.getBoundingClientRect();
    var mx = vb[0] + (e.clientX - r.left) / r.width * vb[2];
    var my = vb[1] + (e.clientY - r.top) / r.height * vb[3];
    vb[0] = mx - (mx - vb[0]) * f;
    vb[1] = my - (my - vb[1]) * f;
    vb[2] *= f; vb[3] *= f;
    apply();
  }, { passive: false });
  var drag = null;
  svg.addEventListener('mousedown', function (e) { drag = [e.clientX, e.clientY]; });
  window.addEventListener('mouseup', function () { drag = null; });
  window.addEventListener('mousemove', function (e) {
    if (!drag) return;
    var r = svg.getBoundingClientRect();
    vb[0] -= (e.clientX - drag[0]) / r.width * vb[2];
    vb[1] -= (e.clientY - drag[1]) / r.height * vb[3];
    drag = [e.clientX, e.clientY];
    apply();
  });
  svg.addEventListener('dblclick', function () { vb = orig.slice(); apply(); });
})();
</script>
</body></html>
`
)

// SpecFromHTML recovers the chart spec embedded in an HTML artifact.
func SpecFromHTML(page []byte) (*Chart, error) {
	const open = `<script type="application/json" id="chart-spec">`
	s := string(page)
	i := strings.Index(s, open)
	if i < 0 {
		return nil, fmt.Errorf("plot: page has no embedded chart spec")
	}
	rest := s[i+len(open):]
	j := strings.Index(rest, "</script>")
	if j < 0 {
		return nil, fmt.Errorf("plot: embedded chart spec is unterminated")
	}
	raw := strings.ReplaceAll(rest[:j], "<\\/", "</")
	return FromJSON([]byte(strings.TrimSpace(raw)))
}
