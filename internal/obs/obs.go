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
	"slices"
	"strconv"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span. Attribute order is
// preserved — exports render attributes in the order they were set.
//
// An integer attribute (SetAttrInt) keeps its value unformatted in num,
// with an empty Value, until an export reads it through Text. Zero, which
// an empty Value could not tell from a string attribute's "", is kept as
// the constant "0", so a zero num with an empty Value is always a string.
type Attr struct {
	Key   string
	Value string
	num   int64
}

// Text renders the attribute's value.
func (a Attr) Text() string {
	if a.Value == "" && a.num != 0 {
		return strconv.FormatInt(a.num, 10)
	}
	return a.Value
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
// use. A span is a handle on its entry in the tracer's list: what it
// records lands there directly, under the tracer's lock.
type Span struct {
	tr *Tracer
	i  int // tr.spans[i]
}

// Tracer records the spans of one run against a single monotonic base
// timestamp. The zero value is not usable; a nil *Tracer is the
// documented "tracing off" state and every method on it is a no-op.
type Tracer struct {
	now  func() time.Time
	base time.Time

	mu     sync.Mutex
	spans  []SpanData // start order; an open span's entry is its live state
	closed bool       // a finished request trace (EndRequest): no span records any more
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
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.spans = append(t.spans, SpanData{ID: int64(len(t.spans) + 1), ParentID: parent, Name: name, Start: t.now()})
	return &Span{tr: t, i: len(t.spans) - 1}
}

// Child opens a span nested under s.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.startSpan(name, int64(s.i+1))
}

// lock takes the tracer's lock and returns the span's entry, or nil when
// its request trace is finished; the caller unlocks.
func (s *Span) lock() *SpanData {
	s.tr.mu.Lock()
	if s.tr.closed {
		return nil
	}
	return &s.tr.spans[s.i]
}

// SetAttr annotates the span. Setting the same key again appends; the
// exporters keep the order, so the last value reads as the latest.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	if d := s.lock(); d != nil {
		d.Attrs = append(d.Attrs, Attr{Key: key, Value: value})
	}
	s.tr.mu.Unlock()
}

// SetAttrInt annotates the span with an integer value, formatted only
// when an export reads it.
func (s *Span) SetAttrInt(key string, v int64) {
	if s == nil {
		return
	}
	a := Attr{Key: key, num: v}
	if v == 0 {
		a.Value = "0"
	}
	if d := s.lock(); d != nil {
		d.Attrs = append(d.Attrs, a)
	}
	s.tr.mu.Unlock()
}

// Event records a point-in-time marker inside the span.
func (s *Span) Event(msg string) {
	if s == nil {
		return
	}
	at := s.tr.now()
	if d := s.lock(); d != nil {
		d.Events = append(d.Events, SpanEvent{At: at, Msg: msg})
	}
	s.tr.mu.Unlock()
}

// End closes the span. Ending twice keeps the first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	at := s.tr.now()
	if d := s.lock(); d != nil && !d.Ended {
		d.End, d.Ended = at, true
	}
	s.tr.mu.Unlock()
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
			return d.Attrs[i].Text()
		}
	}
	return ""
}

// Snapshot returns every recorded span in start order. Spans still open
// are reported with End at the snapshot instant and Ended false. The
// copy shares each span's attributes and events with the tracer, cut to
// their length: the tracer only ever appends past it, so what the
// snapshot shows never changes.
func (t *Tracer) Snapshot() []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	now := t.now()
	out := make([]SpanData, len(t.spans))
	copy(out, t.spans)
	t.mu.Unlock()
	for i := range out {
		d := &out[i]
		d.Attrs, d.Events = slices.Clip(d.Attrs), slices.Clip(d.Events)
		if !d.Ended {
			d.End = now
		}
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
