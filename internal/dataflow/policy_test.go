package dataflow

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRetryUntilSuccess(t *testing.T) {
	g := NewGraph()
	var calls atomic.Int32
	g.Add(Task{
		Name: "flaky",
		Run: func(context.Context) error {
			if calls.Add(1) < 3 {
				return errors.New("transient")
			}
			return nil
		},
	})
	ex := &Executor{Workers: 2, DefaultPolicy: Policy{Attempts: 4, Backoff: time.Millisecond}}
	trace, err := ex.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 3 {
		t.Errorf("calls = %d, want 3", calls.Load())
	}
	tt := trace.Tasks[0]
	if len(tt.Attempts) != 3 || tt.Attempts[0].Err == nil || tt.Attempts[2].Err != nil {
		t.Errorf("attempts = %+v", tt.Attempts)
	}
	if got := tt.Outcome(); got != "ok after 3 attempts" {
		t.Errorf("Outcome = %q", got)
	}
}

func TestRetriesExhausted(t *testing.T) {
	g := NewGraph()
	boom := errors.New("boom")
	var calls atomic.Int32
	g.Add(Task{
		Name: "doomed",
		Run: func(context.Context) error {
			calls.Add(1)
			return boom
		},
	})
	ex := &Executor{Workers: 1, DefaultPolicy: Policy{Attempts: 3, Backoff: time.Millisecond}}
	trace, err := ex.Run(context.Background(), g)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if calls.Load() != 3 {
		t.Errorf("calls = %d, want 3", calls.Load())
	}
	if len(trace.Tasks[0].Attempts) != 3 {
		t.Errorf("attempts = %d", len(trace.Tasks[0].Attempts))
	}
}

func TestPerAttemptTimeoutUnwedgesStall(t *testing.T) {
	g := NewGraph()
	var calls atomic.Int32
	g.Add(Task{
		Name: "stalls-once",
		Run: func(ctx context.Context) error {
			if calls.Add(1) == 1 {
				<-ctx.Done() // hang until the per-attempt deadline fires
				return ctx.Err()
			}
			return nil
		},
	})
	start := time.Now()
	ex := &Executor{Workers: 1, DefaultPolicy: Policy{Attempts: 2, Timeout: 20 * time.Millisecond}}
	trace, err := ex.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Errorf("calls = %d, want 2", calls.Load())
	}
	if !errors.Is(trace.Tasks[0].Attempts[0].Err, context.DeadlineExceeded) {
		t.Errorf("first attempt err = %v", trace.Tasks[0].Attempts[0].Err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("stalled task took %v despite 20ms attempt timeout", d)
	}
}

// TestContinueOnErrorRunsIndependentBranches is the acceptance shape: K
// failing tasks take down only their own downstream subgraphs, every
// other task completes, and the run error reports all K failures.
func TestContinueOnErrorRunsIndependentBranches(t *testing.T) {
	g := NewGraph()
	var ran atomic.Int32
	ok := func(context.Context) error { ran.Add(1); return nil }
	boom := errors.New("boom")

	// Two independent failing branches and one healthy branch:
	//   badA -> downA1 -> downA2,  badB -> downB,  good1 -> good2
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.Add(Task{Name: "badA", Writes: []string{"a"},
		Run: func(context.Context) error { return fmt.Errorf("A: %w", boom) }}))
	must(g.Add(Task{Name: "downA1", Reads: []string{"a"}, Writes: []string{"a1"}, Run: ok}))
	must(g.Add(Task{Name: "downA2", Reads: []string{"a1"}, Run: ok}))
	must(g.Add(Task{Name: "badB", Writes: []string{"b"},
		Run: func(context.Context) error { return fmt.Errorf("B: %w", boom) }}))
	must(g.Add(Task{Name: "downB", Reads: []string{"b"}, Run: ok}))
	must(g.Add(Task{Name: "good1", Writes: []string{"g"}, Run: ok}))
	must(g.Add(Task{Name: "good2", Reads: []string{"g"}, Run: ok}))

	ex := &Executor{Workers: 3, DefaultPolicy: Policy{ContinueOnError: true}}
	trace, err := ex.Run(context.Background(), g)
	var runErr *RunError
	if !errors.As(err, &runErr) {
		t.Fatalf("err = %v, want *RunError", err)
	}
	if len(runErr.Errs) != 2 {
		t.Fatalf("reported %d failures, want 2: %v", len(runErr.Errs), runErr)
	}
	if !errors.Is(err, boom) {
		t.Error("RunError should unwrap to the task errors")
	}
	if ran.Load() != 2 { // good1, good2
		t.Errorf("%d healthy tasks ran, want 2", ran.Load())
	}
	okN, failed, skipped, _ := trace.Counts()
	if okN != 2 || failed != 2 || skipped != 3 {
		t.Errorf("counts ok/failed/skipped = %d/%d/%d, want 2/2/3", okN, failed, skipped)
	}
	if len(trace.Tasks) != len(g.tasks) {
		t.Errorf("trace has %d entries for %d tasks", len(trace.Tasks), len(g.tasks))
	}
	for _, tt := range trace.Tasks {
		if tt.Skipped && !errors.Is(tt.Err, ErrSkipped) {
			t.Errorf("skipped entry %q lacks ErrSkipped: %v", tt.Name, tt.Err)
		}
	}
}

// TestBackoffAbortsOnCancel pins the satellite bugfix: a cancelled
// context must interrupt the backoff sleep itself, not wait out the
// full (doubling) schedule.
func TestBackoffAbortsOnCancel(t *testing.T) {
	g := NewGraph()
	g.Add(Task{
		Name: "always-fails",
		Run:  func(context.Context) error { return errors.New("nope") },
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond) // let the first attempt fail and the sleep start
		cancel()
	}()
	start := time.Now()
	ex := &Executor{Workers: 1, DefaultPolicy: Policy{Attempts: 10, Backoff: 10 * time.Second}}
	_, err := ex.Run(ctx, g)
	if err == nil {
		t.Fatal("cancelled run should report an error")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cancellation took %v to interrupt a 10s backoff", d)
	}
}

// TestDeepChainIterativeDFS is the regression for the recursive
// cycle-detection rewrite: a deep linear dependency chain must validate
// without growing the stack per task.
func TestDeepChainIterativeDFS(t *testing.T) {
	const depth = 100_000
	g := NewGraph()
	prev := ""
	for i := 0; i < depth; i++ {
		var reads []string
		if prev != "" {
			reads = []string{prev}
		}
		out := fmt.Sprintf("f%d", i)
		if err := g.Add(Task{Name: fmt.Sprintf("t%d", i), Reads: reads,
			Writes: []string{out}, Run: noop}); err != nil {
			t.Fatal(err)
		}
		prev = out
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	rows, err := g.Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != depth {
		t.Fatalf("rows = %d, want %d", len(rows), depth)
	}
	// A cycle at the bottom of the deep chain is still caught.
	if err := g.Add(Task{Name: "closer", Reads: []string{prev}, Writes: []string{"f0loop"}, Run: noop}); err != nil {
		t.Fatal(err)
	}
	g2 := NewGraph()
	g2.Add(Task{Name: "a", Reads: []string{"z"}, Writes: []string{"x"}, Run: noop})
	g2.Add(Task{Name: "b", Reads: []string{"x"}, Writes: []string{"z"}, Run: noop})
	if err := g2.Validate(); err == nil {
		t.Error("cycle undetected after iterative rewrite")
	}
}

func TestDOTTraceAnnotatesOutcomes(t *testing.T) {
	g := NewGraph()
	g.Add(Task{Name: "good", Writes: []string{"g"}, Run: noop})
	g.Add(Task{Name: "bad", Writes: []string{"b"},
		Run: func(context.Context) error { return errors.New("x") }})
	g.Add(Task{Name: "child", Reads: []string{"b"}, Run: noop})
	ex := &Executor{Workers: 1, DefaultPolicy: Policy{ContinueOnError: true}}
	trace, err := ex.Run(context.Background(), g)
	var runErr *RunError
	if !errors.As(err, &runErr) {
		t.Fatalf("err = %v", err)
	}
	dot := g.DOTTrace(trace)
	for _, want := range []string{
		`"good" [color=darkgreen`,
		`"bad" [color=red`,
		`"child" [color=gray, style=dashed`,
		`"bad" -> "child"`,
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOTTrace missing %q:\n%s", want, dot)
		}
	}
}
