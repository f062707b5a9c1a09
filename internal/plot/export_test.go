package plot

import "bytes"

// SVG renders the chart to a bare SVG document: the layout walk's SVG
// pen without a page around it, which TestRenderGoldenDigest pins and
// TestPNGIsThePage holds PNG to. Pages embed the same walk through
// WriteHTML.
func SVG(c *Chart, width, height int) ([]byte, error) {
	if err := checkCanvas(c, width, height); err != nil {
		return nil, err
	}
	var doc bytes.Buffer
	e := &emitter{w: &doc}
	draw(e, c, width, height)
	if err := e.flush(); err != nil {
		return nil, err
	}
	return doc.Bytes(), nil
}
