//go:build !race

package slurmsight_test

const raceEnabled = false
