//go:build race

package sched

// raceEnabled reports a -race build, where sync.Pool is bypassed and
// malloc counts run a few per job above the plain build's.
const raceEnabled = true
