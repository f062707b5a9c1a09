//go:build !race

package plot

const raceEnabled = false
