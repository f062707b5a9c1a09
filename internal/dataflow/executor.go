package dataflow

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"slurmsight/internal/obs"
)

// backoffJitter stretches each retry delay by up to this fraction, drawn
// from an RNG seeded with 1 per run, so every run draws the same schedule.
const backoffJitter = 0.2

// Executor runs a graph with bounded physical concurrency — the N in the
// paper's "swift-t -n N workflow.swift" invocation — applying one retry
// policy around every task body.
type Executor struct {
	Workers int
	// DefaultPolicy applies to every task. The zero value is the classic
	// fail-fast single attempt.
	DefaultPolicy Policy
	// Tracer, when non-nil, records a root span for the run plus one
	// span per executed task and per attempt; task bodies can annotate
	// their task's span via obs.SpanFromContext on the context they
	// receive. Nil (the default) disables tracing at near-zero cost.
	Tracer *obs.Tracer
	// Metrics, when non-nil, counts the run under dataflow_* names:
	// attempts, retries, attempt timeouts, per-task latency, and task
	// outcomes. Nil disables metric collection.
	Metrics *obs.Registry
}

// execMetrics caches the executor's instruments for the duration of one
// run; every field is nil (a free no-op) when metrics are off.
type execMetrics struct {
	attempts    *obs.Counter
	retries     *obs.Counter
	timeouts    *obs.Counter
	running     *obs.Gauge
	taskSeconds *obs.Histogram
}

// Run executes every task respecting dependencies, retrying each per the
// policy. Under the zero policy the first terminal task error cancels
// the remaining work and is returned (wrapped); tasks already running
// are allowed to finish. Under ContinueOnError a failed task only takes
// down its own downstream subgraph — independent branches keep
// running, and the combined *RunError reports every failure. The trace
// accounts for every task in the graph exactly once: executed tasks
// carry their attempts, tasks that never ran are marked Skipped.
func (e *Executor) Run(ctx context.Context, g *Graph) (*Trace, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	workers := e.Workers
	if workers <= 0 {
		workers = 1
	}
	deps := g.deps()
	n := len(g.tasks)
	dependents := make([][]int, n)
	indeg := make([]int, n)
	for i, ds := range deps {
		indeg[i] = len(ds)
		for _, u := range ds {
			dependents[u] = append(dependents[u], i)
		}
	}

	if n == 0 {
		return &Trace{}, nil
	}

	runSpan := e.Tracer.Start("dataflow-run")
	runSpan.SetAttrInt("tasks", int64(n))
	runSpan.SetAttrInt("workers", int64(workers))
	em := &execMetrics{
		attempts:    e.Metrics.Counter("dataflow_attempts_total"),
		retries:     e.Metrics.Counter("dataflow_retries_total"),
		timeouts:    e.Metrics.Counter("dataflow_attempt_timeouts_total"),
		running:     e.Metrics.Gauge("dataflow_running_tasks"),
		taskSeconds: e.Metrics.Histogram("dataflow_task_seconds", obs.LatencyBuckets),
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex
		trace    = &Trace{Tasks: make([]TaskTrace, 0, n)}
		firstErr error
		running  int
		settled  = make([]bool, n) // ran to completion, failed, or skipped
		nSettled int
		taskErrs = make([]error, n) // terminal error per task index
		rng      = rand.New(rand.NewSource(1))
	)
	ready := make(chan int, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready <- i
		}
	}

	// jitter perturbs a backoff delay by up to backoffJitter of itself
	// (rand.Rand is not goroutine-safe, hence mu).
	jitter := func(d time.Duration) time.Duration {
		if d <= 0 {
			return d
		}
		mu.Lock()
		u := rng.Float64()
		mu.Unlock()
		return d + time.Duration(backoffJitter*u*float64(d))
	}

	// skipDownstream marks every transitive dependent of task i as
	// settled/skipped, recording one trace entry each. Only pending
	// tasks can be downstream of a failure (anything running or ready
	// already had all parents complete), so no double accounting is
	// possible. Caller holds mu.
	skipDownstream := func(i int) {
		queue := append([]int(nil), dependents[i]...)
		for len(queue) > 0 {
			d := queue[0]
			queue = queue[1:]
			if settled[d] {
				continue
			}
			settled[d] = true
			nSettled++
			trace.Tasks = append(trace.Tasks, TaskTrace{
				Name:    g.tasks[d].Name,
				Skipped: true,
				Err: fmt.Errorf("%w: upstream %q failed",
					ErrSkipped, g.tasks[i].Name),
			})
			queue = append(queue, dependents[d]...)
		}
	}

	// A fixed worker pool drains ready until every task settled, one
	// failed fail-fast, or the caller cancelled.
	var workerWG sync.WaitGroup
	doneCh := make(chan struct{})
	for w := 0; w < workers; w++ {
		workerWG.Add(1)
		go func() {
			defer workerWG.Done()
			for {
				select {
				case <-runCtx.Done():
					return
				case <-doneCh:
					return
				case i := <-ready:
					t := g.tasks[i]
					mu.Lock()
					running++
					if running > trace.MaxConcurrency {
						trace.MaxConcurrency = running
					}
					startedWith := running
					mu.Unlock()

					// The task's span rides the context, so stage bodies
					// can annotate it (obs.SpanFromContext). Disabled
					// tracing leaves runCtx untouched.
					sp := runSpan.Child(t.Name)
					taskCtx := obs.ContextWithSpan(runCtx, sp)

					em.running.Add(1)
					tt := TaskTrace{Name: t.Name, Start: time.Now(), Workers: startedWith}
					err := runAttempts(taskCtx, t, e.DefaultPolicy, &tt, jitter, sp, em)
					tt.End = time.Now()
					tt.Err = err
					em.running.Add(-1)
					em.taskSeconds.Observe(tt.End.Sub(tt.Start).Seconds())
					if sp != nil {
						sp.SetAttr("outcome", tt.Outcome())
						if err != nil {
							sp.SetAttr("error", err.Error())
						}
					}
					sp.End()

					mu.Lock()
					running--
					settled[i] = true
					nSettled++
					trace.Tasks = append(trace.Tasks, tt)
					switch {
					case err == nil:
						for _, d := range dependents[i] {
							indeg[d]--
							if indeg[d] == 0 {
								ready <- d
							}
						}
					case e.DefaultPolicy.ContinueOnError && runCtx.Err() == nil:
						taskErrs[i] = fmt.Errorf("dataflow: task %q: %w", t.Name, err)
						skipDownstream(i)
					default:
						if firstErr == nil {
							firstErr = fmt.Errorf("dataflow: task %q: %w", t.Name, err)
							cancel()
						}
					}
					// The last task settled. A fail-fast abort stops the
					// workers through runCtx instead.
					if nSettled == n {
						close(doneCh)
					}
					mu.Unlock()
				}
			}
		}()
	}
	workerWG.Wait()

	mu.Lock()
	defer mu.Unlock()

	// Account for tasks that never ran: blocked behind an aborted run or
	// drained out when the context was cancelled.
	if nSettled != n {
		reason := "run aborted"
		if ctx.Err() != nil {
			reason = "run cancelled"
		}
		for i := 0; i < n; i++ {
			if settled[i] {
				continue
			}
			settled[i] = true
			nSettled++
			trace.Tasks = append(trace.Tasks, TaskTrace{
				Name:    g.tasks[i].Name,
				Skipped: true,
				Err:     fmt.Errorf("%w: %s", ErrSkipped, reason),
			})
		}
	}

	okN, failedN, skippedN, retriedN := trace.Counts()
	e.Metrics.Counter("dataflow_tasks_total").Add(int64(len(trace.Tasks)))
	e.Metrics.Counter("dataflow_tasks_ok_total").Add(int64(okN))
	e.Metrics.Counter("dataflow_tasks_failed_total").Add(int64(failedN))
	e.Metrics.Counter("dataflow_tasks_skipped_total").Add(int64(skippedN))
	if runSpan != nil {
		runSpan.SetAttr("outcomes", fmt.Sprintf("%d ok, %d failed, %d skipped, %d retried",
			okN, failedN, skippedN, retriedN))
		runSpan.SetAttrInt("max_concurrency", int64(trace.MaxConcurrency))
	}
	runSpan.End()

	if firstErr != nil {
		return trace, firstErr
	}
	if ctxErr := ctx.Err(); ctxErr != nil {
		return trace, ctxErr
	}
	var errs []error
	for _, err := range taskErrs {
		if err != nil {
			errs = append(errs, err)
		}
	}
	if len(errs) > 0 {
		return trace, &RunError{Errs: errs}
	}
	return trace, nil
}

// runAttempts drives one task through the policy: per-attempt timeout,
// exponential backoff with jitter between attempts, and a backoff sleep
// that aborts the moment the run context is cancelled. sp is the task's
// span (nil when tracing is off); em carries the run's instruments.
func runAttempts(runCtx context.Context, t *Task, pol Policy,
	tt *TaskTrace, jitter func(time.Duration) time.Duration,
	sp *obs.Span, em *execMetrics) error {
	backoff := pol.Backoff
	var err error
	for try := 0; try < max(pol.Attempts, 1); try++ {
		if try > 0 {
			delay := jitter(backoff)
			em.retries.Add(1)
			if sp != nil {
				sp.Event(fmt.Sprintf("retry %d after %s: %v", try, delay.Round(time.Millisecond), err))
			}
			if serr := sleepCtx(runCtx, delay); serr != nil {
				return err // keep the attempt error; the run is aborting
			}
			backoff *= 2
		}
		attemptCtx := runCtx
		cancelAttempt := func() {}
		if pol.Timeout > 0 {
			attemptCtx, cancelAttempt = context.WithTimeout(runCtx, pol.Timeout)
		}
		em.attempts.Add(1)
		var asp *obs.Span
		if sp != nil {
			asp = sp.Child("attempt " + strconv.Itoa(try+1))
		}
		at := Attempt{Start: time.Now()}
		current := &attempt{task: t}
		err = t.Run(context.WithValue(attemptCtx, attemptKey{}, current))
		if undeclared := current.undeclared.Load(); undeclared != nil {
			err = *undeclared // fails the attempt even if the body returned nil
		}
		cancelAttempt()
		at.End = time.Now()
		at.Err = err
		tt.Attempts = append(tt.Attempts, at)
		if err != nil {
			if asp != nil {
				asp.SetAttr("error", err.Error())
			}
			if pol.Timeout > 0 && errors.Is(err, context.DeadlineExceeded) {
				em.timeouts.Add(1)
			}
		}
		asp.End()
		if err == nil || runCtx.Err() != nil {
			return err
		}
	}
	return err
}

// sleepCtx waits d or until ctx is cancelled, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
			return nil
		}
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}
