// Package raster is a forwarder to plot.PNG, kept because the benchmark
// harness's raster.png probe (loopbench/layers.go) calls raster.PNG. The
// canvas, the font and the layout they draw live in internal/plot.
package raster

import "slurmsight/internal/plot"

// PNG is plot.PNG.
func PNG(c *plot.Chart, width, height int) ([]byte, error) { return plot.PNG(c, width, height) }
