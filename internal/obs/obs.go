// Package obs is the pipeline's observability layer: a run-scoped span
// tracer and a concurrency-safe metrics registry, both stdlib-only.
//
// The paper's Swift/T workflow is opaque while running — the operator
// learns what happened only when the dashboard appears. This package
// makes the reproduction observable live: every layer (dataflow
// executor, workflow stages, LLM client, curate/analyze streams, the
// scheduler simulator) accepts an optional *Tracer / *Registry and
// reports where time, retries, and rows went. Spans export to Chrome
// trace-event JSON (chrome://tracing / Perfetto) and a human-readable
// summary; metrics expose through expvar and a plain-text /metrics
// handler.
//
// Instrumentation is strictly optional. Every method is safe on a nil
// receiver and the disabled paths neither allocate nor synchronise, so
// golden determinism tests and hot-path benchmarks run unchanged with
// observability off.
package obs

import (
	"context"
	"strconv"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span. Attribute order is
// preserved — exports render attributes in the order they were set.
type Attr struct {
	Key   string
	Value string
}

// SpanEvent is a point-in-time marker inside a span (a retry, a fault,
// a phase transition).
type SpanEvent struct {
	At  time.Time
	Msg string
}

// Span is one timed region of a run: a workflow stage, a task, an
// attempt. Spans nest via Child and carry ordered attributes and
// events. All methods are safe on a nil *Span and safe for concurrent
// use.
type Span struct {
	tr       *Tracer
	id       int64
	parentID int64 // 0 for root spans
	name     string
	start    time.Time

	mu     sync.Mutex
	end    time.Time
	ended  bool
	attrs  []Attr
	events []SpanEvent
}

// Tracer records the spans of one run against a single monotonic base
// timestamp. The zero value is not usable; a nil *Tracer is the
// documented "tracing off" state and every method on it is a no-op.
type Tracer struct {
	now func() time.Time

	mu     sync.Mutex
	base   time.Time
	nextID int64
	spans  []*Span
}

// NewTracer starts a run-scoped tracer; the moment of creation is the
// trace's time origin.
func NewTracer() *Tracer {
	return newTracer(time.Now)
}

// newTracer injects the clock — tests pin exports with a fake one.
func newTracer(now func() time.Time) *Tracer {
	return &Tracer{now: now, base: now()}
}

// Start opens a root span. On a nil tracer it returns a nil span, on
// which every operation is a free no-op.
func (t *Tracer) Start(name string) *Span {
	return t.startSpan(name, 0)
}

func (t *Tracer) startSpan(name string, parent int64) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextID++
	sp := &Span{tr: t, id: t.nextID, parentID: parent, name: name, start: t.now()}
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return sp
}

// Child opens a span nested under s.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.startSpan(name, s.id)
}

// SetAttr annotates the span. Setting the same key again appends; the
// exporters keep the order, so the last value reads as the latest.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// SetAttrInt annotates the span with an integer value.
func (s *Span) SetAttrInt(key string, v int64) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.FormatInt(v, 10))
}

// Event records a point-in-time marker inside the span.
func (s *Span) Event(msg string) {
	if s == nil {
		return
	}
	at := s.tr.now()
	s.mu.Lock()
	s.events = append(s.events, SpanEvent{At: at, Msg: msg})
	s.mu.Unlock()
}

// End closes the span. Ending twice keeps the first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	at := s.tr.now()
	s.mu.Lock()
	if !s.ended {
		s.end = at
		s.ended = true
	}
	s.mu.Unlock()
}

// SpanData is an immutable snapshot of one span, in the tracer's
// recording order (start order).
type SpanData struct {
	ID       int64
	ParentID int64
	Name     string
	Start    time.Time
	End      time.Time
	Ended    bool // false: still open at snapshot time (End = snapshot instant)
	Attrs    []Attr
	Events   []SpanEvent
}

// Duration is the span's wall time.
func (d *SpanData) Duration() time.Duration { return d.End.Sub(d.Start) }

// Attr returns the last value set for key ("" when absent).
func (d *SpanData) Attr(key string) string {
	for i := len(d.Attrs) - 1; i >= 0; i-- {
		if d.Attrs[i].Key == key {
			return d.Attrs[i].Value
		}
	}
	return ""
}

// Snapshot returns every recorded span in start order. Spans still open
// are reported with End at the snapshot instant and Ended false.
func (t *Tracer) Snapshot() []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	now := t.now()
	spans := make([]*Span, len(t.spans))
	copy(spans, t.spans)
	t.mu.Unlock()

	out := make([]SpanData, 0, len(spans))
	for _, sp := range spans {
		sp.mu.Lock()
		d := SpanData{
			ID:       sp.id,
			ParentID: sp.parentID,
			Name:     sp.name,
			Start:    sp.start,
			End:      sp.end,
			Ended:    sp.ended,
			Attrs:    append([]Attr(nil), sp.attrs...),
			Events:   append([]SpanEvent(nil), sp.events...),
		}
		sp.mu.Unlock()
		if !d.Ended {
			d.End = now
		}
		out = append(out, d)
	}
	return out
}

// Base returns the trace's time origin (zero on a nil tracer).
func (t *Tracer) Base() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.base
}

// spanCtxKey carries the active span through a context.
type spanCtxKey struct{}

// ContextWithSpan attaches a span to the context. A nil span returns
// ctx unchanged, so the disabled path allocates nothing.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext returns the active span, or nil when tracing is off.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// StartSpan opens a span as a child of the context's active span (or as
// a root span when none is active) and returns the derived context.
// With a nil tracer and no active span it returns ctx unchanged and a
// nil span.
func StartSpan(ctx context.Context, tr *Tracer, name string) (context.Context, *Span) {
	var sp *Span
	if parent := SpanFromContext(ctx); parent != nil {
		sp = parent.Child(name)
	} else {
		sp = tr.Start(name)
	}
	return ContextWithSpan(ctx, sp), sp
}
