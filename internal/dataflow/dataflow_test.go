package dataflow

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func noop(context.Context) error { return nil }

func TestAddValidation(t *testing.T) {
	g := NewGraph()
	if err := g.Add(Task{Name: "", Run: noop}); err == nil {
		t.Error("unnamed task: want error")
	}
	if err := g.Add(Task{Name: "a"}); err == nil {
		t.Error("bodyless task: want error")
	}
	if err := g.Add(Task{Name: "a", Writes: []string{"f"}, Run: noop}); err != nil {
		t.Fatal(err)
	}
	if err := g.Add(Task{Name: "a", Run: noop}); err == nil {
		t.Error("duplicate name: want error")
	}
	if err := g.Add(Task{Name: "b", Writes: []string{"f"}, Run: noop}); err == nil {
		t.Error("duplicate writer: want error")
	}
	if len(g.tasks) != 1 {
		t.Errorf("Len = %d", len(g.tasks))
	}
}

// pipelineGraph builds the paper's shape: obtain → curate → {plots} →
// dashboard, with png/llm stages hanging off the plots.
func pipelineGraph(t *testing.T, log *[]string, mu *sync.Mutex) *Graph {
	t.Helper()
	g := NewGraph()
	record := func(name string) func(context.Context) error {
		return func(context.Context) error {
			mu.Lock()
			*log = append(*log, name)
			mu.Unlock()
			return nil
		}
	}
	add := func(name string, reads, writes []string) {
		t.Helper()
		if err := g.Add(Task{Name: name, Reads: reads, Writes: writes, Run: record(name)}); err != nil {
			t.Fatal(err)
		}
	}
	add("obtain", nil, []string{"raw.txt"})
	add("curate", []string{"raw.txt"}, []string{"clean.csv"})
	add("plot-states", []string{"clean.csv"}, []string{"states.html"})
	add("plot-waits", []string{"clean.csv"}, []string{"waits.html"})
	add("plot-backfill", []string{"clean.csv"}, []string{"backfill.html"})
	add("dashboard", []string{"states.html", "waits.html", "backfill.html"}, []string{"dash.html"})
	add("html2png", []string{"waits.html"}, []string{"waits.png"})
	add("llm-insight", []string{"waits.png"}, []string{"insight.md"})
	return g
}

func TestInferredDependencyOrder(t *testing.T) {
	var log []string
	var mu sync.Mutex
	g := pipelineGraph(t, &log, &mu)
	ex := &Executor{Workers: 4}
	trace, err := ex.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Tasks) != len(g.tasks) {
		t.Fatalf("traced %d of %d tasks", len(trace.Tasks), len(g.tasks))
	}
	pos := map[string]int{}
	for i, name := range log {
		pos[name] = i
	}
	orderings := [][2]string{
		{"obtain", "curate"},
		{"curate", "plot-states"},
		{"curate", "plot-waits"},
		{"plot-waits", "html2png"},
		{"html2png", "llm-insight"},
		{"plot-states", "dashboard"},
		{"plot-backfill", "dashboard"},
	}
	for _, o := range orderings {
		if pos[o[0]] > pos[o[1]] {
			t.Errorf("%s ran after %s", o[0], o[1])
		}
	}
}

func TestRowsMatchFigure2(t *testing.T) {
	var log []string
	var mu sync.Mutex
	g := pipelineGraph(t, &log, &mu)
	rows, err := g.Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5 (%v)", len(rows), rows)
	}
	if rows[0][0] != "obtain" || rows[1][0] != "curate" {
		t.Errorf("first rows wrong: %v", rows[:2])
	}
	// The three plot stages share a row: they may run concurrently.
	if len(rows[2]) != 3 {
		t.Errorf("plot row = %v", rows[2])
	}
}

func TestDOTExport(t *testing.T) {
	var log []string
	var mu sync.Mutex
	g := pipelineGraph(t, &log, &mu)
	dot := g.DOT()
	for _, want := range []string{
		"digraph workflow",
		`"obtain" -> "curate"`,
		`"curate" -> "plot-waits"`,
		`"html2png" -> "llm-insight"`,
		"rank=same",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
}

func TestCycleDetection(t *testing.T) {
	g := NewGraph()
	g.Add(Task{Name: "a", Reads: []string{"y"}, Writes: []string{"x"}, Run: noop})
	g.Add(Task{Name: "b", Reads: []string{"x"}, Writes: []string{"y"}, Run: noop})
	if err := g.Validate(); err == nil {
		t.Error("cycle: want error")
	}
	if _, err := (&Executor{Workers: 2}).Run(context.Background(), g); err == nil {
		t.Error("running a cyclic graph: want error")
	}
}

func TestConcurrentExecution(t *testing.T) {
	g := NewGraph()
	var concurrent, peak int32
	slow := func(context.Context) error {
		c := atomic.AddInt32(&concurrent, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if c <= p || atomic.CompareAndSwapInt32(&peak, p, c) {
				break
			}
		}
		time.Sleep(30 * time.Millisecond)
		atomic.AddInt32(&concurrent, -1)
		return nil
	}
	for _, name := range []string{"p1", "p2", "p3", "p4"} {
		if err := g.Add(Task{Name: name, Run: slow}); err != nil {
			t.Fatal(err)
		}
	}
	trace, err := (&Executor{Workers: 4}).Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt32(&peak) < 2 {
		t.Errorf("independent tasks never overlapped (peak %d)", peak)
	}
	if trace.MaxConcurrency < 2 {
		t.Errorf("trace.MaxConcurrency = %d", trace.MaxConcurrency)
	}
}

func TestSingleWorkerSerializes(t *testing.T) {
	g := NewGraph()
	var concurrent, peak int32
	slow := func(context.Context) error {
		c := atomic.AddInt32(&concurrent, 1)
		if c > atomic.LoadInt32(&peak) {
			atomic.StoreInt32(&peak, c)
		}
		time.Sleep(10 * time.Millisecond)
		atomic.AddInt32(&concurrent, -1)
		return nil
	}
	for _, name := range []string{"a", "b", "c"} {
		g.Add(Task{Name: name, Run: slow})
	}
	if _, err := (&Executor{Workers: 1}).Run(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt32(&peak) != 1 {
		t.Errorf("single worker ran %d tasks at once", peak)
	}
}

func TestFailureCancelsDownstream(t *testing.T) {
	g := NewGraph()
	boom := errors.New("boom")
	var ranDownstream atomic.Bool
	g.Add(Task{Name: "first", Writes: []string{"x"}, Run: func(context.Context) error { return boom }})
	g.Add(Task{Name: "second", Reads: []string{"x"}, Run: func(context.Context) error {
		ranDownstream.Store(true)
		return nil
	}})
	trace, err := (&Executor{Workers: 2}).Run(context.Background(), g)
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if ranDownstream.Load() {
		t.Error("downstream task ran despite upstream failure")
	}
	// The trace accounts for both tasks: the failure and the skip.
	if len(trace.Tasks) != 2 {
		t.Fatalf("trace = %+v", trace.Tasks)
	}
	byName := map[string]TaskTrace{}
	for _, tt := range trace.Tasks {
		byName[tt.Name] = tt
	}
	if first := byName["first"]; first.Err == nil || first.Skipped {
		t.Errorf("first = %+v", first)
	}
	if second := byName["second"]; !second.Skipped || !errors.Is(second.Err, ErrSkipped) {
		t.Errorf("second = %+v", second)
	}
}

func TestContextCancellation(t *testing.T) {
	g := NewGraph()
	started := make(chan struct{})
	g.Add(Task{Name: "hang", Run: func(ctx context.Context) error {
		close(started)
		<-ctx.Done()
		return ctx.Err()
	}})
	g.Add(Task{Name: "after", Reads: []string{"never"}, Run: noop})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-started
		cancel()
	}()
	_, err := (&Executor{Workers: 2}).Run(ctx, g)
	if err == nil {
		t.Error("cancelled run should report an error")
	}
}

func TestExternalInputsAssumed(t *testing.T) {
	// Files nobody writes are external inputs; reading them creates no
	// dependency and no error.
	g := NewGraph()
	g.Add(Task{Name: "only", Reads: []string{"/data/slurm-2024.txt"}, Run: noop})
	if _, err := (&Executor{Workers: 1}).Run(context.Background(), g); err != nil {
		t.Errorf("external input: %v", err)
	}
}

func TestTrivialGraph(t *testing.T) {
	g := NewGraph()
	if _, err := (&Executor{}).Run(context.Background(), g); err != nil {
		t.Errorf("empty graph should run cleanly: %v", err)
	}
	rows, err := g.Rows()
	if err != nil || len(rows) != 1 && len(rows) != 0 {
		t.Errorf("rows of empty graph: %v, %v", rows, err)
	}
}
