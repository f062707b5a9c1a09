//go:build race

package sacct

// raceEnabled reports a -race build, where the instrumented runtime
// allocates beside the code under test, so malloc counts run above the
// plain build's.
const raceEnabled = true
