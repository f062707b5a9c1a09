//go:build race

package slurmsight_test

// raceEnabled reports a -race build, which TestPaperReproduction skips.
const raceEnabled = true
