package plot

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"strings"
	"testing"
)

// TestWriteHTMLReturnsEmbeddedSpec: the spec WriteHTML returns is
// Chart.JSON's, and it is the one the streamed page embeds.
func TestWriteHTMLReturnsEmbeddedSpec(t *testing.T) {
	for _, g := range goldenCharts() {
		var page bytes.Buffer
		spec, err := WriteHTML(&page, g.c, g.w, g.h)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		want, err := g.c.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(spec, want) {
			t.Errorf("%s: WriteHTML spec differs from Chart.JSON", g.name)
		}
		if !bytes.Contains(page.Bytes(), spec) {
			t.Errorf("%s: page does not embed the returned spec", g.name)
		}
	}
}

// TestEmbedEscapesClosingTags drives the spec embedding directly: JSON
// encoding already writes '<' as <, so no chart spec reaches the
// loop with a literal "</", but the page must not depend on that.
func TestEmbedEscapesClosingTags(t *testing.T) {
	long := strings.Repeat("x", flushAt-1) + "</" + strings.Repeat("y", flushAt)
	for _, in := range []string{"", "</", "<</", "a</b</c", "<", "/</", long} {
		var out bytes.Buffer
		e := emitter{w: &out}
		e.embed([]byte(in))
		if err := e.flush(); err != nil {
			t.Fatal(err)
		}
		if want := strings.ReplaceAll(in, "</", `<\/`); out.String() != want {
			t.Errorf("embed(%.20q…) = %.20q…, want %.20q…", in, out.String(), want)
		}
	}
}

// TestWriteHTMLChecksBeforeWriting: a chart or canvas WriteHTML refuses
// leaves the writer untouched.
func TestWriteHTMLChecksBeforeWriting(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    *Chart
		w, h int
	}{
		{"invalid chart", &Chart{}, 800, 500},
		{"tiny canvas", scatterChart(), 50, 50},
	} {
		var out bytes.Buffer
		if _, err := WriteHTML(&out, tc.c, tc.w, tc.h); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
		if out.Len() != 0 {
			t.Errorf("%s: %d bytes written before the error", tc.name, out.Len())
		}
	}
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct{ n, writes int }

var errDiskFull = errors.New("disk full")

func (f *failAfter) Write(p []byte) (int, error) {
	f.writes++
	if len(p) > f.n {
		return f.n, errDiskFull
	}
	f.n -= len(p)
	return len(p), nil
}

// TestWriteHTMLStickyError: the first write error ends the output and is
// the one WriteHTML returns.
func TestWriteHTMLStickyError(t *testing.T) {
	c := bigScatter(20000)
	w := &failAfter{n: 100}
	if _, err := WriteHTML(w, c, 960, 540); !errors.Is(err, errDiskFull) {
		t.Fatalf("err = %v, want %v", err, errDiskFull)
	}
	if w.writes != 1 {
		t.Errorf("%d writes reached the failed writer, want 1", w.writes)
	}
}

func bigScatter(n int) *Chart {
	xs, ys := make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i] = float64(i%977+1) * 37.5
		ys[i] = float64(i%61+1) * 1.25
	}
	half := n / 2
	return &Chart{
		Title: "nodes vs elapsed", XLabel: "elapsed (s)", YLabel: "nodes",
		Kind: Scatter, XScale: Log10, YScale: Log10,
		Series: []Series{
			{Name: "COMPLETED", X: xs[:half], Y: ys[:half], Marker: Dot},
			{Name: "FAILED", X: xs[half:], Y: ys[half:], Marker: Plus},
		},
	}
}

// TestWriteHTMLAllocsDoNotScaleWithPoints pins the render plane's emit
// path: once the page buffer has grown past its flush threshold it is
// reused, so a 20k-point page costs the mallocs of a 2k one plus what
// marshalling the bigger spec costs — no per-mark string, Sprintf or
// builder copy.
func TestWriteHTMLAllocsDoNotScaleWithPoints(t *testing.T) {
	if raceEnabled {
		t.Skip("malloc counts are not stable under -race")
	}
	// encoding/json keeps its encoders in a sync.Pool, and a collection
	// that empties it charges a fresh encoder's growth to whichever size
	// ran then: no collection, no noise.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	small, large := bigScatter(2000), bigScatter(20000)
	page := func(c *Chart) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := WriteHTML(io.Discard, c, 960, 540); err != nil {
				t.Fatal(err)
			}
		})
	}
	marshal := func(c *Chart) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := json.MarshalIndent(c, "", " "); err != nil {
				t.Fatal(err)
			}
		})
	}
	// The first measurement in a process also pays a few one-off runtime
	// allocations; spend it on neither side of the comparison.
	page(large)
	grew, specGrew := page(large)-page(small), marshal(large)-marshal(small)
	if grew > specGrew+2 {
		t.Errorf("WriteHTML allocates %v more times for 20k points than for 2k; marshalling their specs accounts for %v",
			grew, specGrew)
	}
}

func BenchmarkWriteHTML(b *testing.B) {
	for _, n := range []int{2000, 20000} {
		c := bigScatter(n)
		b.Run(fmt.Sprintf("points=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := WriteHTML(io.Discard, c, 960, 540); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
