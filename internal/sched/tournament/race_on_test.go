//go:build race

package tournament

// raceEnabled reports a -race build, which drops a share of what is put
// in a sync.Pool and pads what the allocator hands out.
const raceEnabled = true
