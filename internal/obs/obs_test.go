package obs

import (
	"context"
	"sync"
	"testing"
	"time"
)

// fakeClock steps a deterministic clock by a fixed tick per reading.
type fakeClock struct {
	mu   sync.Mutex
	t    time.Time
	tick time.Duration
}

func newFakeClock(tick time.Duration) *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC), tick: tick}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.t
	c.t = c.t.Add(c.tick)
	return now
}

func TestSpanHierarchyAndSnapshot(t *testing.T) {
	clock := newFakeClock(time.Millisecond)
	tr := newTracer(clock.Now)

	root := tr.Start("run")
	child := root.Child("curate")
	child.SetAttr("period", "2024-01")
	child.SetAttrInt("rows", 42)
	child.Event("retry")
	child.End()
	root.End()

	snap := tr.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d spans, want 2", len(snap))
	}
	if snap[0].Name != "run" || snap[0].ParentID != 0 {
		t.Errorf("root = %+v", snap[0])
	}
	if snap[1].Name != "curate" || snap[1].ParentID != snap[0].ID {
		t.Errorf("child = %+v", snap[1])
	}
	if got := snap[1].Attr("period"); got != "2024-01" {
		t.Errorf("period attr = %q", got)
	}
	if got := snap[1].Attr("rows"); got != "42" {
		t.Errorf("rows attr = %q", got)
	}
	if len(snap[1].Events) != 1 || snap[1].Events[0].Msg != "retry" {
		t.Errorf("events = %+v", snap[1].Events)
	}
	for i, d := range snap {
		if !d.Ended || !d.End.After(d.Start) {
			t.Errorf("span %d not closed properly: %+v", i, d)
		}
	}
}

func TestUnendedSpanGetsSnapshotTime(t *testing.T) {
	clock := newFakeClock(time.Millisecond)
	tr := newTracer(clock.Now)
	tr.Start("open")
	snap := tr.Snapshot()
	if snap[0].Ended {
		t.Fatal("span reported ended")
	}
	if !snap[0].End.After(snap[0].Start) {
		t.Fatalf("open span End %v not after Start %v", snap[0].End, snap[0].Start)
	}
}

func TestContextPropagation(t *testing.T) {
	tr := NewTracer()
	ctx := context.Background()
	if got := SpanFromContext(ctx); got != nil {
		t.Fatalf("empty ctx span = %v", got)
	}
	root := tr.Start("root")
	ctx = ContextWithSpan(ctx, root)
	if root == nil || SpanFromContext(ctx) != root {
		t.Fatal("root span not in context")
	}
	child := SpanFromContext(ctx).Child("child")
	child.End()
	root.End()
	snap := tr.Snapshot()
	if len(snap) != 2 || snap[1].ParentID != snap[0].ID {
		t.Fatalf("child not parented via context: %+v", snap)
	}
}

// TestNilNoOpPaths pins the disabled-instrumentation contract: a nil
// tracer, span, or context round trip must not panic, must return the
// inputs unchanged, and (next test) must not allocate.
func TestNilNoOpPaths(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("x")
	if sp != nil {
		t.Fatal("nil tracer produced a span")
	}
	sp.SetAttr("k", "v")
	sp.SetAttrInt("n", 1)
	sp.Event("e")
	csp := sp.Child("y")
	if csp != nil {
		t.Fatal("nil span produced a child")
	}
	sp.End()
	ctx := context.Background()
	if got := ContextWithSpan(ctx, nil); got != ctx {
		t.Error("ContextWithSpan(nil) changed the context")
	}
	if got := SpanFromContext(ctx).Child("z"); got != nil {
		t.Error("the empty context's span produced a child")
	}
	if got := tr.Snapshot(); got != nil {
		t.Errorf("nil tracer snapshot = %v", got)
	}
}

// TestDisabledPathsDoNotAllocate is the overhead gate for the no-op
// instrumentation: with tracing and metrics off, every hook the
// pipeline calls per task/row/request must be allocation-free.
func TestDisabledPathsDoNotAllocate(t *testing.T) {
	var tr *Tracer
	var reg *Registry
	ctx := context.Background()
	cases := map[string]func(){
		"tracer": func() {
			sp := tr.Start("task")
			child := sp.Child("attempt")
			child.SetAttr("k", "v")
			child.Event("retry")
			child.End()
			sp.End()
		},
		"context": func() {
			sp := SpanFromContext(ctx).Child("stage")
			ctx2 := ContextWithSpan(ctx, sp)
			SpanFromContext(ctx2).SetAttrInt("rows", 1)
			sp.End()
		},
		"metrics": func() {
			reg.Counter("c").Add(1)
			reg.Gauge("g").Set(3)
			reg.Histogram("h", LatencyBuckets).Observe(0.5)
		},
		"instruments": func() {
			var c *Counter
			var g *Gauge
			var h *Histogram
			c.Inc()
			g.Add(-1)
			h.Observe(1)
			_ = c.Value() + g.Value() + h.Count()
		},
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
			t.Errorf("%s disabled path allocates %.1f per op, want 0", name, allocs)
		}
	}
}

// TestTracerConcurrent exercises span creation, annotation, and
// snapshotting from many goroutines — run with -race.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("run")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := root.Child("task")
				sp.SetAttrInt("i", int64(i))
				sp.Event("tick")
				sp.End()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = tr.Snapshot()
		}
	}()
	wg.Wait()
	root.End()
	snap := tr.Snapshot()
	if len(snap) != 1+8*200 {
		t.Fatalf("snapshot has %d spans, want %d", len(snap), 1+8*200)
	}
}
