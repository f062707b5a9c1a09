package obs

import (
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"html"
	"math/rand/v2"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// traceIDs is the process's trace ID source, seeded once from
// crypto/rand.
var traceIDs struct {
	sync.Mutex
	src *rand.ChaCha8
}

// NewTraceID mints a 16-hex-character request trace ID. IDs are random,
// not sequential, so traces from restarted or replicated processes never
// collide in aggregated logs.
func NewTraceID() string {
	traceIDs.Lock()
	if traceIDs.src == nil {
		var seed [32]byte
		crand.Read(seed[:])
		traceIDs.src = rand.NewChaCha8(seed)
	}
	v := traceIDs.src.Uint64()
	traceIDs.Unlock()
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	var h [16]byte
	hex.Encode(h[:], b[:])
	return string(h[:])
}

// RequestTrace is one completed request: identity, outcome, and the
// span tree recorded while it ran. The serving middleware fills it and
// hands it to a Recorder; /debug/requests renders it for postmortems.
type RequestTrace struct {
	ID       string
	Route    string // bounded-cardinality route label, e.g. "/figures"
	Method   string
	Path     string // full request path
	Status   int
	Client   string // throttle client key (API key or remote host)
	Start    time.Time
	Duration time.Duration
	Spans    []SpanData // start order, roots first
}

// requestTracer is the one allocation behind a request's trace: the
// tracer its spans record into and the handle on its root.
type requestTracer struct {
	tr   Tracer
	root Span
}

// StartRequest opens the trace of one request that began at start: its
// root span, named name, with room for attrs attributes. Every span the
// request's layers open under the root records straight into the trace,
// and EndRequest hands the list over as it stands.
func StartRequest(name string, start time.Time, attrs int) *Span {
	rq := &requestTracer{tr: Tracer{now: time.Now, base: start}}
	rq.tr.spans = []SpanData{{ID: 1, Name: name, Start: start, Attrs: make([]Attr, 0, attrs)}}
	rq.root = Span{tr: &rq.tr}
	return &rq.root
}

// EndRequest ends root, a span from StartRequest, and closes its trace:
// any later call on one of the request's spans is a no-op, and a span
// still open reads as a snapshot's would, ending now. It returns the
// trace's spans — the list they were recorded in, not a copy — for
// RequestTrace.Spans.
func EndRequest(root *Span) []SpanData {
	root.End()
	t := root.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	for i := range t.spans {
		if !t.spans[i].Ended {
			t.spans[i].End = now
		}
	}
	t.closed = true
	return t.spans
}

// maxRecorderRoutes bounds the tail-sampler map: past it, traces on
// never-seen routes still enter the ring but are not tail-sampled, so a
// path-scanning client cannot grow memory without bound.
const maxRecorderRoutes = 64

// Recorder is the always-on flight recorder: a fixed-size ring of the
// most recent completed request traces plus a keep-the-slowest-N tail
// sampler per route, so the worst recent requests survive long after
// the ring has wrapped. Memory is bounded by ring + routes×tail traces.
// All methods are safe for concurrent use and free no-ops on a nil
// receiver — the disabled state, exactly like a nil Tracer.
type Recorder struct {
	ringN, tailN int

	mu      sync.Mutex
	ring    []*RequestTrace // ringN slots, next points at the oldest
	next    int
	total   uint64
	slowest map[string][]*RequestTrace // per route, descending duration
}

// NewRecorder sizes a recorder: ring recent traces (default 256) and
// tail slowest-per-route traces (default 8).
func NewRecorder(ring, tail int) *Recorder {
	if ring <= 0 {
		ring = 256
	}
	if tail <= 0 {
		tail = 8
	}
	return &Recorder{
		ringN:   ring,
		tailN:   tail,
		ring:    make([]*RequestTrace, 0, ring),
		slowest: make(map[string][]*RequestTrace),
	}
}

// Record retains a completed trace. The caller must not mutate t after
// handing it over.
func (r *Recorder) Record(t *RequestTrace) {
	if r == nil || t == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if len(r.ring) < r.ringN {
		r.ring = append(r.ring, t)
	} else {
		r.ring[r.next] = t
		r.next = (r.next + 1) % r.ringN
	}
	tail, ok := r.slowest[t.Route]
	if !ok && len(r.slowest) >= maxRecorderRoutes {
		return
	}
	if len(tail) >= r.tailN {
		if t.Duration <= tail[len(tail)-1].Duration {
			return // faster than everything retained
		}
		tail = tail[:len(tail)-1] // evict the quickest of the slow
	}
	i := sort.Search(len(tail), func(i int) bool { return tail[i].Duration < t.Duration })
	tail = append(tail, nil)
	copy(tail[i+1:], tail[i:])
	tail[i] = t
	r.slowest[t.Route] = tail
}

// RecorderSnapshot is a point-in-time view of the recorder: the recent
// ring newest-first and the per-route slowest traces, slowest-first.
type RecorderSnapshot struct {
	Total   uint64
	Recent  []*RequestTrace
	Slowest map[string][]*RequestTrace
}

// Snapshot copies the recorder's current retention. The traces
// themselves are shared (immutable once recorded), the slices are not.
func (r *Recorder) Snapshot() RecorderSnapshot {
	if r == nil {
		return RecorderSnapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	recent := make([]*RequestTrace, 0, len(r.ring))
	// Newest first: the slot before next is the most recent write once
	// the ring has wrapped; before that, the tail of the append order.
	for i := len(r.ring) - 1; i >= 0; i-- {
		recent = append(recent, r.ring[(r.next+i)%len(r.ring)])
	}
	slowest := make(map[string][]*RequestTrace, len(r.slowest))
	for route, tail := range r.slowest {
		slowest[route] = append([]*RequestTrace(nil), tail...)
	}
	return RecorderSnapshot{Total: r.total, Recent: recent, Slowest: slowest}
}

// spanJSON is one span rendered for /debug/requests: offsets relative
// to the request start, attributes flattened last-value-wins, children
// nested.
type spanJSON struct {
	Name       string            `json:"name"`
	OffsetUS   int64             `json:"offset_us"`
	DurationUS int64             `json:"duration_us"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Events     []string          `json:"events,omitempty"`
	Children   []*spanJSON       `json:"children,omitempty"`
}

type traceJSON struct {
	ID         string      `json:"id"`
	Route      string      `json:"route"`
	Method     string      `json:"method"`
	Path       string      `json:"path"`
	Status     int         `json:"status"`
	Client     string      `json:"client"`
	Start      time.Time   `json:"start"`
	DurationMS float64     `json:"duration_ms"`
	Spans      []*spanJSON `json:"spans"`
}

// spanTree nests a tracer snapshot (start order, ParentID links) into
// root-first trees relative to the request start time.
func spanTree(spans []SpanData, base time.Time) []*spanJSON {
	byID := make(map[int64]*spanJSON, len(spans))
	var roots []*spanJSON
	for i := range spans {
		d := &spans[i]
		js := &spanJSON{
			Name:       d.Name,
			OffsetUS:   d.Start.Sub(base).Microseconds(),
			DurationUS: d.Duration().Microseconds(),
		}
		if len(d.Attrs) > 0 {
			js.Attrs = make(map[string]string, len(d.Attrs))
			for _, a := range d.Attrs {
				js.Attrs[a.Key] = a.Text()
			}
		}
		for _, e := range d.Events {
			js.Events = append(js.Events, fmt.Sprintf("+%dus %s", e.At.Sub(base).Microseconds(), e.Msg))
		}
		byID[d.ID] = js
		if parent, ok := byID[d.ParentID]; ok {
			parent.Children = append(parent.Children, js)
		} else {
			roots = append(roots, js)
		}
	}
	return roots
}

// traceTree is t's span tree for /debug/requests. Its roots show the
// request's path and client among their attributes, unless a root set its
// own: a request trace keeps them once, in its own fields, and not again
// on its root span.
func traceTree(t *RequestTrace) []*spanJSON {
	roots := spanTree(t.Spans, t.Start)
	for _, root := range roots {
		if root.Attrs == nil {
			root.Attrs = make(map[string]string, 2)
		}
		for _, a := range [...]Attr{{Key: "path", Value: t.Path}, {Key: "client", Value: t.Client}} {
			if _, set := root.Attrs[a.Key]; !set {
				root.Attrs[a.Key] = a.Value
			}
		}
	}
	return roots
}

func renderTrace(t *RequestTrace) traceJSON {
	return traceJSON{
		ID:         t.ID,
		Route:      t.Route,
		Method:     t.Method,
		Path:       t.Path,
		Status:     t.Status,
		Client:     t.Client,
		Start:      t.Start,
		DurationMS: float64(t.Duration.Microseconds()) / 1000,
		Spans:      traceTree(t),
	}
}

// Handler serves the flight recorder at /debug/requests: an HTML view
// for humans (x/net/trace style: slowest per route, then the recent
// ring) and, with ?format=json, the same snapshot as JSON for tooling.
// ?route=/figures filters both views to one route. Safe on a nil
// recorder (serves an empty snapshot).
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		snap := r.Snapshot()
		if route := req.URL.Query().Get("route"); route != "" {
			filtered := snap.Recent[:0:0]
			for _, t := range snap.Recent {
				if t.Route == route {
					filtered = append(filtered, t)
				}
			}
			snap.Recent = filtered
			if tail, ok := snap.Slowest[route]; ok {
				snap.Slowest = map[string][]*RequestTrace{route: tail}
			} else {
				snap.Slowest = map[string][]*RequestTrace{}
			}
		}
		if req.URL.Query().Get("format") == "json" {
			out := struct {
				Total   uint64                 `json:"total"`
				Recent  []traceJSON            `json:"recent"`
				Slowest map[string][]traceJSON `json:"slowest"`
			}{Total: snap.Total, Recent: []traceJSON{}, Slowest: map[string][]traceJSON{}}
			for _, t := range snap.Recent {
				out.Recent = append(out.Recent, renderTrace(t))
			}
			for route, tail := range snap.Slowest {
				rt := make([]traceJSON, 0, len(tail))
				for _, t := range tail {
					rt = append(rt, renderTrace(t))
				}
				out.Slowest[route] = rt
			}
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(out)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		writeRecorderHTML(w, snap)
	})
}

// writeRecorderHTML renders the minimal human view: no scripts, no
// external assets, readable over curl -L in a terminal browser.
func writeRecorderHTML(w http.ResponseWriter, snap RecorderSnapshot) {
	fmt.Fprintf(w, "<!doctype html><meta charset=utf-8><title>/debug/requests</title>")
	fmt.Fprintf(w, "<style>body{font:13px monospace;margin:1em}table{border-collapse:collapse}"+
		"td,th{border:1px solid #ccc;padding:2px 8px;text-align:left}"+
		".span{white-space:pre}</style>")
	fmt.Fprintf(w, "<h1>flight recorder</h1><p>%d requests recorded</p>", snap.Total)
	routes := make([]string, 0, len(snap.Slowest))
	for route := range snap.Slowest {
		routes = append(routes, route)
	}
	sort.Strings(routes)
	fmt.Fprintf(w, "<h2>slowest per route</h2>")
	for _, route := range routes {
		fmt.Fprintf(w, "<h3>%s</h3>", html.EscapeString(route))
		for _, t := range snap.Slowest[route] {
			writeTraceHTML(w, t)
		}
	}
	fmt.Fprintf(w, "<h2>recent (newest first)</h2><table><tr><th>when</th><th>trace</th>"+
		"<th>route</th><th>status</th><th>duration</th><th>client</th></tr>")
	for _, t := range snap.Recent {
		fmt.Fprintf(w, "<tr><td>%s</td><td>%s</td><td>%s %s</td><td>%d</td><td>%s</td><td>%s</td></tr>",
			t.Start.Format("15:04:05.000"), html.EscapeString(t.ID),
			html.EscapeString(t.Method), html.EscapeString(t.Path),
			t.Status, t.Duration.Round(time.Microsecond), html.EscapeString(t.Client))
	}
	fmt.Fprintf(w, "</table>")
}

func writeTraceHTML(w http.ResponseWriter, t *RequestTrace) {
	fmt.Fprintf(w, "<p><b>%s</b> %s %s → %d in %s (client %s)</p><div class=span>",
		html.EscapeString(t.ID), html.EscapeString(t.Method), html.EscapeString(t.Path),
		t.Status, t.Duration.Round(time.Microsecond), html.EscapeString(t.Client))
	var emit func(spans []*spanJSON, depth int)
	emit = func(spans []*spanJSON, depth int) {
		for _, sp := range spans {
			var attrs strings.Builder
			for k, v := range sp.Attrs {
				fmt.Fprintf(&attrs, " %s=%s", k, v)
			}
			fmt.Fprintf(w, "%s+%6dus %8dus %s%s\n", strings.Repeat("  ", depth),
				sp.OffsetUS, sp.DurationUS, html.EscapeString(sp.Name),
				html.EscapeString(attrs.String()))
			emit(sp.Children, depth+1)
		}
	}
	emit(traceTree(t), 0)
	fmt.Fprintf(w, "</div>")
}
