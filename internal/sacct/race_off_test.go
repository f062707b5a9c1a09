//go:build !race

package sacct

const raceEnabled = false
