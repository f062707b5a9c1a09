//go:build !race

package slurm

const raceEnabled = false
