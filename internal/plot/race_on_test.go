//go:build race

package plot

// raceEnabled reports a -race build, where sync.Pool drops items at
// random, so encoding/json's encoder reuse — and with it a malloc count —
// varies from run to run.
const raceEnabled = true
