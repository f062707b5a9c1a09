//go:build !race

package analyze

const raceEnabled = false
