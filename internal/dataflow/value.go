package dataflow

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
)

// ErrUndeclared marks a task that Got a Value missing from its Reads or
// Set one missing from its Writes. The access fails the task on every
// run, whatever the scheduling, so a missing edge is an error, not a race.
var ErrUndeclared = errors.New("dataflow: undeclared value access")

// Value is an in-memory dataflow edge: a future one task Sets and the
// tasks downstream of it Get. Tasks list its Name in Writes and Reads as
// they list a file, and the engine orders them by it — which is also why
// a Value needs no lock. Inside a run an undeclared Set is dropped, an
// undeclared Get returns the zero value, and either fails the task with
// ErrUndeclared. Outside a run any caller may Set or Get.
type Value[T any] struct {
	name string
	x    T
}

// NewValue returns an unset value with the given edge name.
func NewValue[T any](name string) *Value[T] { return &Value[T]{name: name} }

// Name is the edge name tasks list in Reads and Writes.
func (v *Value[T]) Name() string { return v.name }

// Set stores x; the running task must list v in its Writes.
func (v *Value[T]) Set(ctx context.Context, x T) {
	if allowed(ctx, "Set", v.name) {
		v.x = x
	}
}

// Get returns the last x Set; the running task must list v in its Reads.
func (v *Value[T]) Get(ctx context.Context) (x T) {
	if allowed(ctx, "Get", v.name) {
		x = v.x
	}
	return x
}

// attempt is one try of one task, put on the context its body receives
// so that a Value can check an access against the task's declaration.
type attempt struct {
	task       *Task
	undeclared atomic.Pointer[error] // the first undeclared access
}

type attemptKey struct{}

// allowed reports whether the task running on ctx declared the access,
// recording the first one it did not. Outside a run every access is.
func allowed(ctx context.Context, op, name string) bool {
	a, _ := ctx.Value(attemptKey{}).(*attempt)
	if a == nil {
		return true
	}
	declared := a.task.Reads
	if op == "Set" {
		declared = a.task.Writes
	}
	if slices.Contains(declared, name) {
		return true
	}
	err := fmt.Errorf("%w: task %q called %s on %q without declaring it",
		ErrUndeclared, a.task.Name, op, name)
	a.undeclared.CompareAndSwap(nil, &err)
	return false
}
