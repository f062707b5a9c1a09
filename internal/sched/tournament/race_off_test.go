//go:build !race

package tournament

const raceEnabled = false
