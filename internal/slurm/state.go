// Package slurm models the subset of the Slurm accounting data universe used
// by the SlurmSight workflow: job and step records, the curated field
// catalogue from Table 1 of the paper, and parsers/formatters for the text
// encodings emitted by sacct (durations, memory sizes, K-suffixed counts,
// TRES strings, pipe-separated records).
//
// The package is a from-scratch substrate standing in for the proprietary
// Slurm accounting database at OLCF; every other module consumes traces only
// through the types defined here.
package slurm

import (
	"fmt"
	"strings"
)

// State is the terminal (or live) state of a job or step, mirroring the
// sacct State column.
type State int

// Job states recognised by the workflow. The order matters only for stable
// presentation: terminal success first, then failure modes, then live states.
const (
	StateCompleted State = iota
	StateFailed
	StateCancelled
	StateTimeout
	StateNodeFail
	StateOutOfMemory
	StatePreempted
	StateRequeued
	StatePending
	StateRunning
	StateSuspended
	numStates
)

var stateNames = [...]string{
	StateCompleted:   "COMPLETED",
	StateFailed:      "FAILED",
	StateCancelled:   "CANCELLED",
	StateTimeout:     "TIMEOUT",
	StateNodeFail:    "NODE_FAIL",
	StateOutOfMemory: "OUT_OF_MEMORY",
	StatePreempted:   "PREEMPTED",
	StateRequeued:    "REQUEUED",
	StatePending:     "PENDING",
	StateRunning:     "RUNNING",
	StateSuspended:   "SUSPENDED",
}

// String returns the canonical sacct spelling of the state.
func (s State) String() string {
	if s < 0 || int(s) >= len(stateNames) {
		return fmt.Sprintf("UNKNOWN(%d)", int(s))
	}
	return stateNames[s]
}

// Terminal reports whether the state is a terminal accounting state.
func (s State) Terminal() bool {
	switch s {
	case StatePending, StateRunning, StateSuspended, StateRequeued:
		return false
	}
	return true
}

// ParseState converts a sacct State column value. sacct renders cancelled
// jobs as "CANCELLED by <uid>"; the suffix is accepted and dropped.
func ParseState(s string) (State, error) {
	t := strings.ToUpper(strings.TrimSpace(s))
	if strings.HasPrefix(t, "CANCELLED") {
		return StateCancelled, nil
	}
	for i, name := range stateNames {
		if t == name {
			return State(i), nil
		}
	}
	return 0, fmt.Errorf("slurm: unknown job state %q", s)
}

// States returns all states in presentation order. The returned slice is a
// fresh copy and safe to mutate.
func States() []State {
	out := make([]State, numStates)
	for i := range out {
		out[i] = State(i)
	}
	return out
}

// TerminalStates returns the terminal states in presentation order.
func TerminalStates() []State {
	var out []State
	for _, s := range States() {
		if s.Terminal() {
			out = append(out, s)
		}
	}
	return out
}
