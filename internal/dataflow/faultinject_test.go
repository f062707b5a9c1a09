package dataflow

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// This file is a deterministic fault-injection harness for task bodies,
// and its tests. An injector wraps a task's Run function and, consulting
// a seeded per-task schedule, makes individual invocations fail, stall
// until cancellation, or run late — the flaky-external-API conditions the
// executor's retry policy exists for.
//
// Determinism is the point: each task name gets its own RNG stream
// derived from (seed, name), so the k-th call of a given task sees the
// same decision regardless of how goroutines interleave across tasks.
// Tests can therefore assert exact outcomes for a seed, and a failing
// stress-test seed replays identically.

// faultKind enumerates the injectable faults.
type faultKind int

const (
	// faultNone lets the call through untouched.
	faultNone faultKind = iota
	// faultError fails the call without running the wrapped body.
	faultError
	// faultDelay sleeps (context-aware) before running the body.
	faultDelay
	// faultStall blocks until the context is cancelled, then returns its
	// error — the "hung upstream" that only a per-attempt timeout can
	// unwedge.
	faultStall
)

// errInjected is the sentinel wrapped by every injected failure.
var errInjected = errors.New("injected fault")

// faultOptions sets the probabilistic schedule. Rates are per-call
// probabilities drawn in order error, delay, stall from one uniform
// sample; their sum should stay ≤ 1.
type faultOptions struct {
	errorRate float64
	delayRate float64
	stallRate float64
	// delay is how long a faultDelay sleeps before running the body.
	delay time.Duration
}

// injector derives per-task fault schedules from one seed.
type injector struct {
	seed int64
	opts faultOptions

	mu    sync.Mutex
	tasks map[string]*faultState
}

type faultState struct {
	rng      *rand.Rand
	calls    int
	script   []faultKind // explicit schedule; consulted before the RNG
	injected map[faultKind]int
}

// newInjector returns an injector for the given seed and probabilities.
func newInjector(seed int64, opts faultOptions) *injector {
	return &injector{seed: seed, opts: opts, tasks: map[string]*faultState{}}
}

func (in *injector) state(name string) *faultState {
	st, ok := in.tasks[name]
	if !ok {
		h := fnv.New64a()
		h.Write([]byte(name))
		st = &faultState{
			rng:      rand.New(rand.NewSource(in.seed ^ int64(h.Sum64()))),
			injected: map[faultKind]int{},
		}
		in.tasks[name] = st
	}
	return st
}

// script pins an explicit fault sequence for one task: call k receives
// faults[k]; calls past the end fall back to the probabilistic schedule.
// Scripts make "fail twice then succeed" retry tests exact.
func (in *injector) script(name string, faults ...faultKind) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.state(name).script = append(in.state(name).script, faults...)
}

// decide draws the fault for the next call of name.
func (in *injector) decide(name string) (faultKind, int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	st := in.state(name)
	call := st.calls
	st.calls++
	var k faultKind
	if call < len(st.script) {
		k = st.script[call]
	} else {
		u := st.rng.Float64()
		switch {
		case u < in.opts.errorRate:
			k = faultError
		case u < in.opts.errorRate+in.opts.delayRate:
			k = faultDelay
		case u < in.opts.errorRate+in.opts.delayRate+in.opts.stallRate:
			k = faultStall
		default:
			k = faultNone
		}
	}
	if k != faultNone {
		st.injected[k]++
	}
	return k, call
}

// wrap returns a body that consults the schedule before delegating to fn.
func (in *injector) wrap(name string, fn func(context.Context) error) func(context.Context) error {
	return func(ctx context.Context) error {
		k, call := in.decide(name)
		switch k {
		case faultError:
			return fmt.Errorf("%w: task %q call %d", errInjected, name, call)
		case faultDelay:
			timer := time.NewTimer(in.opts.delay)
			defer timer.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-timer.C:
			}
		case faultStall:
			<-ctx.Done()
			return ctx.Err()
		}
		return fn(ctx)
	}
}

// calls reports how many invocations of name the injector has seen.
func (in *injector) calls(name string) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	if st, ok := in.tasks[name]; ok {
		return st.calls
	}
	return 0
}

// injected totals the faults of one kind delivered across all tasks.
func (in *injector) injected(k faultKind) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	total := 0
	for _, st := range in.tasks {
		total += st.injected[k]
	}
	return total
}

func TestScriptedFaults(t *testing.T) {
	in := newInjector(1, faultOptions{})
	in.script("curate", faultError, faultError, faultNone)
	body := in.wrap("curate", noop)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if err := body(ctx); !errors.Is(err, errInjected) {
			t.Fatalf("call %d: err = %v, want injected", i, err)
		}
	}
	if err := body(ctx); err != nil {
		t.Fatalf("call 2: %v, want success", err)
	}
	if in.calls("curate") != 3 {
		t.Errorf("calls = %d", in.calls("curate"))
	}
	if in.injected(faultError) != 2 {
		t.Errorf("injected errors = %d", in.injected(faultError))
	}
}

func TestStallBlocksUntilCancelled(t *testing.T) {
	in := newInjector(1, faultOptions{})
	in.script("hang", faultStall)
	body := in.wrap("hang", noop)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := body(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Errorf("stall returned after %v, before the deadline", d)
	}
}

func TestDelayIsContextAware(t *testing.T) {
	in := newInjector(1, faultOptions{delay: 10 * time.Second})
	in.script("slow", faultDelay)
	body := in.wrap("slow", noop)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if err := body(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("delayed call ignored cancellation for %v", d)
	}
}

// decisions drains n decisions for every named task from an injector.
func decisions(in *injector, names []string, n int) map[string][]faultKind {
	out := map[string][]faultKind{}
	for _, name := range names {
		for i := 0; i < n; i++ {
			k, _ := in.decide(name)
			out[name] = append(out[name], k)
		}
	}
	return out
}

func TestDeterministicAcrossInterleavings(t *testing.T) {
	opts := faultOptions{errorRate: 0.3, delayRate: 0.2, stallRate: 0.1}
	names := []string{"obtain", "curate", "plot", "llm-insight"}

	// Serial, task by task.
	serial := decisions(newInjector(42, opts), names, 16)

	// Concurrent, interleaved arbitrarily across tasks.
	in := newInjector(42, opts)
	var wg sync.WaitGroup
	var mu sync.Mutex
	concurrent := map[string][]faultKind{}
	for _, name := range names {
		name := name
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				k, call := in.decide(name)
				mu.Lock()
				for len(concurrent[name]) <= call {
					concurrent[name] = append(concurrent[name], faultNone)
				}
				concurrent[name][call] = k
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	some := false
	for _, name := range names {
		for i := range serial[name] {
			if serial[name][i] != concurrent[name][i] {
				t.Fatalf("task %s call %d: serial %v, concurrent %v",
					name, i, serial[name][i], concurrent[name][i])
			}
			if serial[name][i] != faultNone {
				some = true
			}
		}
	}
	if !some {
		t.Error("no faults drawn at these rates — schedule is inert")
	}

	// A different seed produces a different schedule.
	other := decisions(newInjector(43, opts), names, 16)
	same := true
	for _, name := range names {
		for i := range serial[name] {
			if serial[name][i] != other[name][i] {
				same = false
			}
		}
	}
	if same {
		t.Error("seeds 42 and 43 drew identical schedules")
	}
}
