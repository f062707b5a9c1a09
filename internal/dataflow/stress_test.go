package dataflow

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// buildFaultyDAG layers a random graph whose bodies run through a
// seeded injector: some calls fail, some sleep, some hang until a
// timeout or cancellation clears them.
func buildFaultyDAG(t *testing.T, rng *rand.Rand, in *injector) *Graph {
	t.Helper()
	g := NewGraph()
	layers := 2 + rng.Intn(4)
	var produced []string
	for layer := 0; layer < layers; layer++ {
		width := 1 + rng.Intn(5)
		var newFiles []string
		for w := 0; w < width; w++ {
			name := fmt.Sprintf("s%d_%d", layer, w)
			var reads []string
			for _, f := range produced {
				if rng.Float64() < 0.3 {
					reads = append(reads, f)
				}
			}
			out := name + ".out"
			newFiles = append(newFiles, out)
			if err := g.Add(Task{
				Name:   name,
				Reads:  reads,
				Writes: []string{out},
				Run:    in.wrap(name, func(context.Context) error { return nil }),
			}); err != nil {
				t.Fatal(err)
			}
		}
		produced = append(produced, newFiles...)
	}
	return g
}

// TestStressFaultyDAGsAccountForEveryTask is the satellite stress test:
// random DAGs under injected errors/delays/stalls, per-attempt timeouts,
// retry policies, and occasional mid-run cancellation — and in every
// case the trace accounts for each scheduled task exactly once, with
// outcome bookkeeping consistent with the returned error.
func TestStressFaultyDAGsAccountForEveryTask(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 6
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(seed)))
			in := newInjector(int64(seed), faultOptions{
				errorRate: 0.25,
				delayRate: 0.15,
				stallRate: 0.10,
				delay:     2 * time.Millisecond,
			})
			g := buildFaultyDAG(t, rng, in)
			ex := &Executor{
				Workers: 1 + rng.Intn(6),
				DefaultPolicy: Policy{
					Attempts:        1 + rng.Intn(3),
					Timeout:         15 * time.Millisecond, // unwedges stalls
					Backoff:         time.Millisecond,
					ContinueOnError: true,
				},
			}
			ctx := context.Background()
			cancelled := rng.Float64() < 0.3
			if cancelled {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Duration(1+rng.Intn(10))*time.Millisecond)
				defer cancel()
			}

			trace, err := ex.Run(ctx, g)

			// Every task appears in the trace exactly once.
			seen := map[string]int{}
			for _, tt := range trace.Tasks {
				seen[tt.Name]++
			}
			if len(seen) != g.Len() {
				t.Fatalf("trace names %d of %d tasks", len(seen), g.Len())
			}
			for name, n := range seen {
				if n != 1 {
					t.Fatalf("task %s traced %d times", name, n)
				}
			}

			okN, failed, skipped, _ := trace.Counts()
			if okN+failed+skipped != g.Len() {
				t.Fatalf("outcome counts %d+%d+%d != %d", okN, failed, skipped, g.Len())
			}

			switch {
			case cancelled && err != nil:
				// Fine: a cancelled or partially-failed run reports it.
			case err == nil:
				if failed != 0 || skipped != 0 {
					t.Fatalf("clean run with %d failed, %d skipped", failed, skipped)
				}
			default:
				var runErr *RunError
				if errors.As(err, &runErr) {
					if len(runErr.Errs) != failed {
						t.Fatalf("RunError reports %d failures, trace has %d",
							len(runErr.Errs), failed)
					}
					for _, e := range runErr.Errs {
						// Every terminal failure traces back to the
						// harness: an injected error or a stalled
						// attempt cut down by its timeout.
						if !errors.Is(e, errInjected) &&
							!errors.Is(e, context.DeadlineExceeded) {
							t.Fatalf("unexplained failure: %v", e)
						}
					}
				}
			}
		})
	}
}

// TestStressMidRunCancellationReturnsPromptly drives a wide always-stall
// graph, cancels mid-run, and requires Run to return well before the
// stalled bodies' natural 10s timeout: cancellation must cut through
// running attempts and pending backoff sleeps alike.
func TestStressMidRunCancellationReturnsPromptly(t *testing.T) {
	in := newInjector(7, faultOptions{stallRate: 1})
	g := NewGraph()
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("hang%d", i)
		if err := g.Add(Task{Name: name, Run: in.wrap(name, func(context.Context) error { return nil })}); err != nil {
			t.Fatal(err)
		}
	}
	ex := &Executor{
		Workers:       4,
		DefaultPolicy: Policy{Attempts: 5, Backoff: 10 * time.Second, ContinueOnError: true},
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	trace, err := ex.Run(ctx, g)
	wg.Wait()
	if err == nil {
		t.Fatal("cancelled run should report an error")
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("cancellation returned after %v", d)
	}
	if len(trace.Tasks) != g.Len() {
		t.Fatalf("trace has %d entries for %d tasks", len(trace.Tasks), g.Len())
	}
}
