//go:build race

package serve

// raceEnabled reports a -race build, whose instrumented allocator pads
// what it hands out, so a byte count pins nothing there.
const raceEnabled = true
