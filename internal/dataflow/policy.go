package dataflow

import (
	"errors"
	"fmt"
	"strings"
	"time"
)

// Policy controls how the executor runs every task: how many times it is
// attempted, how long each attempt may take, how retries are spaced, and
// whether a terminal failure aborts the run or only the task's own
// downstream subgraph. The zero value is the classic fail-fast,
// single-attempt behaviour.
type Policy struct {
	// Attempts is the total number of tries (first run + retries).
	// Values <= 0 mean one attempt.
	Attempts int
	// Timeout bounds each attempt; 0 means no per-attempt deadline. The
	// task body must honour its context for the deadline to take effect.
	Timeout time.Duration
	// Backoff is the delay before the first retry, doubled per retry and
	// stretched by up to a fifth by seeded jitter; 0 retries immediately.
	Backoff time.Duration
	// ContinueOnError keeps independent branches running after a task
	// fails terminally: only the task's transitive dependents are
	// skipped, and Run reports every failure, not just the first.
	ContinueOnError bool
}

// ErrSkipped marks trace entries for tasks that never ran — their
// upstream failed or the run was aborted before they became runnable.
var ErrSkipped = errors.New("dataflow: task skipped")

// RunError aggregates every terminal task failure from a run that kept
// going under ContinueOnError. errors.Is/As see through it to the
// individual task errors.
type RunError struct {
	Errs []error
}

func (e *RunError) Error() string {
	if len(e.Errs) == 1 {
		return e.Errs[0].Error()
	}
	msgs := make([]string, len(e.Errs))
	for i, err := range e.Errs {
		msgs[i] = err.Error()
	}
	return fmt.Sprintf("dataflow: %d tasks failed: %s", len(e.Errs), strings.Join(msgs, "; "))
}

// Unwrap exposes the individual task errors to errors.Is/As.
func (e *RunError) Unwrap() []error { return e.Errs }

// Attempt records one try of one task.
type Attempt struct {
	Start time.Time
	End   time.Time
	Err   error
}

// TaskTrace records one task's execution, including every attempt the
// retry policy made. Skipped tasks (upstream failure, aborted run)
// appear with Skipped set and no attempts, so a trace accounts for every
// task in the graph exactly once.
type TaskTrace struct {
	Name     string
	Start    time.Time
	End      time.Time
	Err      error // final outcome: nil on success
	Workers  int   // concurrent tasks running when this one started
	Attempts []Attempt
	Skipped  bool
}

// Outcome summarises the entry for logs and DOT annotations.
func (tt *TaskTrace) Outcome() string {
	switch {
	case tt.Skipped:
		return "skipped"
	case tt.Err != nil:
		return "failed"
	case len(tt.Attempts) > 1:
		return fmt.Sprintf("ok after %d attempts", len(tt.Attempts))
	default:
		return "ok"
	}
}

// Trace is the execution record of one run.
type Trace struct {
	Tasks          []TaskTrace
	MaxConcurrency int
}

// Counts tallies the run by outcome; retried counts tasks that needed
// more than one attempt (whether or not they eventually succeeded).
func (t *Trace) Counts() (ok, failed, skipped, retried int) {
	for i := range t.Tasks {
		tt := &t.Tasks[i]
		switch {
		case tt.Skipped:
			skipped++
		case tt.Err != nil:
			failed++
		default:
			ok++
		}
		if len(tt.Attempts) > 1 {
			retried++
		}
	}
	return ok, failed, skipped, retried
}
