package dataflow

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// TestUndeclaredValueAccessFailsTask: a task that Gets a value missing
// from its Reads, or Sets one missing from its Writes, fails — on every
// run and at every width, not only when the scheduler happens to race it
// against the writer. The undeclared Set leaves the value untouched and
// the declared reader sees the declared writer's value.
func TestUndeclaredValueAccessFailsTask(t *testing.T) {
	for _, workers := range []int{1, 8} {
		for run := 0; run < 50; run++ {
			v := NewValue[int]("answer")
			var seen atomic.Int64
			g := NewGraph()
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			must(g.Add(Task{Name: "writer", Writes: []string{v.Name()},
				Run: func(ctx context.Context) error { v.Set(ctx, 42); return nil }}))
			must(g.Add(Task{Name: "reader", Reads: []string{v.Name()},
				Run: func(ctx context.Context) error { seen.Store(int64(v.Get(ctx))); return nil }}))
			must(g.Add(Task{Name: "sneak-get", Writes: []string{"other"},
				Run: func(ctx context.Context) error {
					if got := v.Get(ctx); got != 0 {
						return fmt.Errorf("undeclared Get returned %d", got)
					}
					return nil
				}}))
			must(g.Add(Task{Name: "sneak-set", Reads: []string{v.Name()},
				Run: func(ctx context.Context) error { v.Set(ctx, -1); return nil }}))

			ex := &Executor{Workers: workers, DefaultPolicy: Policy{ContinueOnError: true}}
			_, err := ex.Run(context.Background(), g)
			var runErr *RunError
			if !errors.As(err, &runErr) || len(runErr.Errs) != 2 {
				t.Fatalf("workers=%d run %d: err = %v, want two failures", workers, run, err)
			}
			for _, want := range []string{`"sneak-get" called Get on "answer"`, `"sneak-set" called Set on "answer"`} {
				if !errors.Is(err, ErrUndeclared) || !strings.Contains(err.Error(), want) {
					t.Fatalf("workers=%d run %d: %v does not report %s", workers, run, err, want)
				}
			}
			if seen.Load() != 42 || v.Get(context.Background()) != 42 {
				t.Fatalf("workers=%d run %d: reader saw %d, value holds %d, want 42",
					workers, run, seen.Load(), v.Get(context.Background()))
			}
		}
	}
}

// TestValueGetAfterRun: outside a run any caller may Get, and sees the
// last Set that took effect — here the successful retry's, not the failed
// first attempt's. A value no task set reads as its zero value.
func TestValueGetAfterRun(t *testing.T) {
	v := NewValue[string]("greeting")
	unset := NewValue[[]int]("unset")
	tries := 0
	g := NewGraph()
	g.Add(Task{Name: "writer", Writes: []string{v.Name()}, Run: func(ctx context.Context) error {
		tries++
		v.Set(ctx, fmt.Sprintf("attempt %d", tries))
		if tries == 1 {
			return errors.New("transient")
		}
		return nil
	}})
	if _, err := (&Executor{Workers: 1, DefaultPolicy: Policy{Attempts: 2}}).Run(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	if got := v.Get(context.Background()); got != "attempt 2" {
		t.Errorf("Get after the run = %q, want %q", got, "attempt 2")
	}
	if got := unset.Get(context.Background()); got != nil {
		t.Errorf("unset value = %v, want nil", got)
	}
}

// TestValueFromFailedTaskNeverRead: a task that Sets a value and then
// fails under ContinueOnError takes its readers down with it, so no
// reader ever sees what the failed task left behind.
func TestValueFromFailedTaskNeverRead(t *testing.T) {
	v := NewValue[int]("partial")
	var reads atomic.Int32
	g := NewGraph()
	g.Add(Task{Name: "bad", Writes: []string{v.Name()}, Run: func(ctx context.Context) error {
		v.Set(ctx, 7)
		return errors.New("failed after Set")
	}})
	g.Add(Task{Name: "reader", Reads: []string{v.Name()}, Writes: []string{"derived"},
		Run: func(ctx context.Context) error { reads.Add(1); v.Get(ctx); return nil }})
	g.Add(Task{Name: "grandchild", Reads: []string{"derived"},
		Run: func(ctx context.Context) error { reads.Add(1); return nil }})
	g.Add(Task{Name: "bystander", Run: noop})

	ex := &Executor{Workers: 4, DefaultPolicy: Policy{ContinueOnError: true}}
	trace, err := ex.Run(context.Background(), g)
	var runErr *RunError
	if !errors.As(err, &runErr) || len(runErr.Errs) != 1 {
		t.Fatalf("err = %v, want one failure", err)
	}
	if reads.Load() != 0 {
		t.Errorf("%d downstream tasks ran after their writer failed", reads.Load())
	}
	if okN, failed, skipped, _ := trace.Counts(); okN != 1 || failed != 1 || skipped != 2 {
		t.Errorf("trace: %d ok, %d failed, %d skipped; want 1, 1, 2", okN, failed, skipped)
	}
}

// TestValueNamesAreEdges: a value name in Writes and Reads orders the two
// tasks exactly as a file name does, and the DOT draws the edge.
func TestValueNamesAreEdges(t *testing.T) {
	v := NewValue[int]("count")
	g := NewGraph()
	g.Add(Task{Name: "consume", Reads: []string{v.Name()}, Run: noop})
	g.Add(Task{Name: "produce", Writes: []string{v.Name()}, Run: noop})
	rows, err := g.Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0] != "produce" || rows[1][0] != "consume" {
		t.Errorf("rows = %v, want produce before consume", rows)
	}
	if dot := g.DOT(); !strings.Contains(dot, `"produce" -> "consume"`) {
		t.Errorf("DOT lacks the value edge:\n%s", dot)
	}
}
