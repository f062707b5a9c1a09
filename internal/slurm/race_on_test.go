//go:build race

package slurm

// raceEnabled reports a -race build, where the exhaustive renderer sweep
// runs a sample: it is arithmetic, with nothing for the detector to find.
const raceEnabled = true
