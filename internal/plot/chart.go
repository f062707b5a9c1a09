// Package plot is the visualization substrate standing in for Plotly: a
// declarative chart model, an SVG renderer with native hover tooltips, a
// self-contained interactive HTML wrapper (wheel zoom and pan), and a JSON
// encoding of the chart spec. The JSON spec doubles as the "image" the
// simulated multimodal LLM analyses, so every artifact the AI subworkflow
// consumes is also machine-checkable.
package plot

import (
	"encoding/json"
	"errors"
	"fmt"
)

// Kind selects the mark type.
type Kind int

// Chart kinds used across the paper's figures.
const (
	Scatter Kind = iota
	StackedBar
	GroupedBar
	Line
)

var kindNames = [...]string{"scatter", "stacked-bar", "grouped-bar", "line"}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return "unknown"
	}
	return kindNames[k]
}

// MarshalJSON encodes the kind by name.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON decodes a kind name.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, n := range kindNames {
		if n == s {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("plot: unknown kind %q", s)
}

// Scale selects an axis transform.
type Scale int

// Axis scales.
const (
	Linear Scale = iota
	Log10
)

// MarshalJSON encodes the scale by name.
func (s Scale) MarshalJSON() ([]byte, error) {
	if s == Log10 {
		return json.Marshal("log10")
	}
	return json.Marshal("linear")
}

// UnmarshalJSON decodes a scale name.
func (s *Scale) UnmarshalJSON(b []byte) error {
	var v string
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	switch v {
	case "linear":
		*s = Linear
	case "log10":
		*s = Log10
	default:
		return fmt.Errorf("plot: unknown scale %q", v)
	}
	return nil
}

// Marker selects the point glyph; the paper's Figure 6 distinguishes
// backfilled jobs with plus marks.
type Marker string

// Point glyphs.
const (
	Dot    Marker = "dot"
	Plus   Marker = "plus"
	Square Marker = "square"
)

// Series is one named mark group.
type Series struct {
	Name   string    `json:"name"`
	X      []float64 `json:"x,omitempty"`
	Y      []float64 `json:"y"`
	Marker Marker    `json:"marker,omitempty"`
	Color  string    `json:"color,omitempty"` // CSS color; palette-assigned when empty
}

// Chart is one figure.
type Chart struct {
	Title  string `json:"title"`
	XLabel string `json:"xlabel"`
	YLabel string `json:"ylabel"`
	Kind   Kind   `json:"kind"`
	XScale Scale  `json:"xscale"`
	YScale Scale  `json:"yscale"`
	// XTime marks x values as unix seconds to be rendered as dates.
	XTime bool `json:"xtime,omitempty"`
	// Categories label bar groups for bar kinds (x is ignored).
	Categories []string `json:"categories,omitempty"`
	Series     []Series `json:"series"`
	// Notes carries provenance (e.g. downsampling applied).
	Notes string `json:"notes,omitempty"`
}

// Validate checks internal consistency.
func (c *Chart) Validate() error {
	if c.Title == "" {
		return errors.New("plot: chart needs a title")
	}
	if len(c.Series) == 0 {
		return errors.New("plot: chart needs at least one series")
	}
	bar := c.Kind == StackedBar || c.Kind == GroupedBar
	for i := range c.Series {
		s := &c.Series[i]
		if len(s.Y) == 0 {
			return fmt.Errorf("plot: series %q is empty", s.Name)
		}
		if bar {
			if len(c.Categories) != len(s.Y) {
				return fmt.Errorf("plot: series %q has %d values for %d categories",
					s.Name, len(s.Y), len(c.Categories))
			}
			continue
		}
		if len(s.X) != len(s.Y) {
			return fmt.Errorf("plot: series %q x/y length mismatch", s.Name)
		}
		if c.XScale == Log10 {
			for _, x := range s.X {
				if x <= 0 {
					return fmt.Errorf("plot: series %q has non-positive x on a log axis", s.Name)
				}
			}
		}
		if c.YScale == Log10 {
			for _, y := range s.Y {
				if y <= 0 {
					return fmt.Errorf("plot: series %q has non-positive y on a log axis", s.Name)
				}
			}
		}
	}
	return nil
}

// Points returns the total mark count.
func (c *Chart) Points() int {
	n := 0
	for i := range c.Series {
		n += len(c.Series[i].Y)
	}
	return n
}

// MarshalJSON is the chart-spec artifact written next to each rendering.
func (c *Chart) JSON() ([]byte, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return json.MarshalIndent(c, "", " ")
}

// FromJSON decodes a chart spec.
func FromJSON(data []byte) (*Chart, error) {
	var c Chart
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}
