package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Chrome trace-event export: the snapshot renders as a JSON object with
// a traceEvents array of complete ("X") span events and instant ("i")
// marker events, loadable in chrome://tracing and ui.perfetto.dev.
// Those viewers lay events out by (pid, tid) lane and nest "X" events
// on a lane only when their intervals are properly contained, so the
// exporter assigns each span a lane such that spans sharing a lane are
// either nested or disjoint — concurrent siblings get their own lanes,
// which is exactly how the workflow's parallel stages should render.

// chromeEvent is one trace-event row. Field order is fixed by the
// struct, so the export is byte-stable for a given snapshot.
type chromeEvent struct {
	Name string    `json:"name"`
	Cat  string    `json:"cat"`
	Ph   string    `json:"ph"`
	Ts   int64     `json:"ts"` // microseconds since the trace base
	Dur  *int64    `json:"dur,omitempty"`
	Pid  int       `json:"pid"`
	Tid  int       `json:"tid"`
	S    string    `json:"s,omitempty"` // instant scope ("t" = thread)
	Args *argsJSON `json:"args,omitempty"`
}

// argsJSON marshals attributes as an object in insertion order —
// map[string]string would randomise the golden output.
type argsJSON []Attr

func (a argsJSON) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte('{')
	for i, kv := range a {
		if i > 0 {
			b.WriteByte(',')
		}
		k, err := json.Marshal(kv.Key)
		if err != nil {
			return nil, err
		}
		v, err := json.Marshal(kv.Text())
		if err != nil {
			return nil, err
		}
		b.Write(k)
		b.WriteByte(':')
		b.Write(v)
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

// WriteChromeTrace exports the tracer's spans as Chrome trace-event
// JSON. A nil tracer writes an empty but valid trace.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	events := t.chromeEvents()
	doc := struct {
		DisplayTimeUnit string        `json:"displayTimeUnit"`
		TraceEvents     []chromeEvent `json:"traceEvents"`
	}{DisplayTimeUnit: "ms", TraceEvents: events}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

func (t *Tracer) chromeEvents() []chromeEvent {
	snap := t.Snapshot()
	if len(snap) == 0 {
		return []chromeEvent{}
	}
	base := t.Base()

	// Lane assignment: process spans in start order (ties: longer
	// first, then ID), keep a stack of open interval ends per lane, and
	// place each span on the first lane where it either nests inside
	// the innermost open interval or starts after everything closed.
	type key struct{ startUs, endUs int64 }
	keys := make([]key, len(snap))
	order := make([]int, len(snap))
	for i := range snap {
		keys[i] = key{
			startUs: int64(snap[i].Start.Sub(base) / time.Microsecond),
			endUs:   int64(snap[i].End.Sub(base) / time.Microsecond),
		}
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ka, kb := keys[order[a]], keys[order[b]]
		if ka.startUs != kb.startUs {
			return ka.startUs < kb.startUs
		}
		if ka.endUs != kb.endUs {
			return ka.endUs > kb.endUs // longer first, so children follow parents
		}
		return snap[order[a]].ID < snap[order[b]].ID
	})
	lanes := make([][]int64, 0, 4) // per-lane stack of open interval ends
	tid := make([]int, len(snap))
	for _, i := range order {
		k := keys[i]
		placed := false
		for li := range lanes {
			stack := lanes[li]
			for len(stack) > 0 && stack[len(stack)-1] <= k.startUs {
				stack = stack[:len(stack)-1]
			}
			if len(stack) == 0 || k.endUs <= stack[len(stack)-1] {
				lanes[li] = append(stack, k.endUs)
				tid[i] = li + 1
				placed = true
				break
			}
			lanes[li] = stack
		}
		if !placed {
			lanes = append(lanes, []int64{k.endUs})
			tid[i] = len(lanes)
		}
	}

	events := make([]chromeEvent, 0, len(snap))
	for _, i := range order {
		d := snap[i]
		dur := keys[i].endUs - keys[i].startUs
		ev := chromeEvent{
			Name: d.Name, Cat: "span", Ph: "X",
			Ts: keys[i].startUs, Dur: &dur, Pid: 1, Tid: tid[i],
		}
		if len(d.Attrs) > 0 {
			args := argsJSON(d.Attrs)
			ev.Args = &args
		}
		events = append(events, ev)
		for _, e := range d.Events {
			events = append(events, chromeEvent{
				Name: e.Msg, Cat: "event", Ph: "i",
				Ts: int64(e.At.Sub(base) / time.Microsecond), Pid: 1, Tid: tid[i],
				S: "t",
			})
		}
	}
	return events
}

// WriteSummary renders the span tree as an indented human-readable
// table: one line per span with its wall time and attributes, children
// under parents in start order. A nil tracer writes nothing.
func (t *Tracer) WriteSummary(w io.Writer) {
	if t == nil {
		return
	}
	snap := t.Snapshot()
	var wall time.Duration
	for i := range snap {
		if d := snap[i].End.Sub(t.Base()); d > wall {
			wall = d
		}
	}
	fmt.Fprintf(w, "== run trace: %d spans, wall %s ==\n", len(snap), fmtDuration(wall))
	children := map[int64][]int{}
	for i := range snap {
		children[snap[i].ParentID] = append(children[snap[i].ParentID], i)
	}
	var walk func(parent int64, depth int)
	walk = func(parent int64, depth int) {
		for _, i := range children[parent] {
			d := &snap[i]
			name := d.Name
			open := ""
			if !d.Ended {
				open = " (open)"
			}
			fmt.Fprintf(w, "%s%-*s %10s%s%s\n",
				strings.Repeat("  ", depth), 34-2*depth, name,
				fmtDuration(d.Duration()), open, attrSuffix(d.Attrs))
			walk(d.ID, depth+1)
		}
	}
	walk(0, 0)
}

func attrSuffix(attrs []Attr) string {
	if len(attrs) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("  [")
	for i, a := range attrs {
		if i > 0 {
			b.WriteString(" ")
		}
		b.WriteString(a.Key)
		b.WriteString("=")
		b.WriteString(a.Text())
	}
	b.WriteString("]")
	return b.String()
}

// fmtDuration rounds a duration to a readable precision without
// drowning the table in nanoseconds.
func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Minute:
		return d.Round(time.Second).String()
	case d >= time.Second:
		return d.Round(10 * time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(time.Microsecond).String()
	}
}
