package sacct

import (
	"slices"
	"testing"

	"slurmsight/internal/slurm"
)

// TestIngestGrowsEachShardOnce pins the bulk-load sizing: Ingest counts
// what a result adds to each month and grows that shard once, so beyond
// what the record stream itself allocates building the rows, its
// allocations are a handful however many rows arrive — not the dozens of
// re-copying growth steps per shard that Add alone takes.
func TestIngestGrowsEachShardOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("malloc counts are not stable under -race")
	}
	_, res := buildStore(t, 40)
	stream := testing.AllocsPerRun(3, func() {
		for range res.Records {
		}
	})
	var st *Store
	allocs := testing.AllocsPerRun(3, func() {
		st = NewStore()
		if err := st.Ingest(res); err != nil {
			t.Fatal(err)
		}
	}) - stream
	if want := res.Len() + res.StepRows(); st.Len() != want {
		t.Fatalf("Len = %d, want %d", st.Len(), want)
	}
	// NewStore's five, the count map, one grow per month, map growth, the
	// iterator's frames.
	if limit := float64(16 + 2*len(st.Months())); allocs > limit {
		t.Errorf("Ingest of %d rows into %d months allocates %v times past the stream's %v, want <= %v",
			st.Len(), len(st.Months()), allocs, stream, limit)
	}
}

// TestIngestLandsEachJobBeforeItsSteps pins the order Ingest loads a
// result in: each job followed by its own steps, which is scan order
// already — the Finalize behind it sorts nothing, copies nothing and moves
// no generation — and is row for row the store that adding all jobs, then
// all steps, and sorting produces.
func TestIngestLandsEachJobBeforeItsSteps(t *testing.T) {
	_, res := buildStore(t, 40)
	jobs, steps := res.Collect()
	want := NewStore()
	if err := want.Add(jobs...); err != nil {
		t.Fatal(err)
	}
	if err := want.Add(steps...); err != nil {
		t.Fatal(err)
	}
	want.Finalize()

	got := NewStore()
	if err := got.Ingest(res); err != nil {
		t.Fatal(err)
	}
	gen := got.Generation()
	firsts := map[Month]*slurm.Record{}
	for m, mo := range got.months {
		if !slices.IsSortedFunc(mo.mem, recordCmp) {
			t.Fatalf("shard %s is out of scan order straight after Ingest", m)
		}
		firsts[m] = &mo.mem[0]
	}
	got.Finalize()
	if got.Generation() != gen {
		t.Errorf("Finalize after Ingest moved the generation %d → %d: it reordered a shard", gen, got.Generation())
	}
	for m, mo := range got.months {
		if &mo.mem[0] != firsts[m] {
			t.Errorf("Finalize after Ingest copied shard %s", m)
		}
	}
	if !slices.Equal(scanKeys(t, got), scanKeys(t, want)) {
		t.Fatal("Ingest + Finalize scans differently from Add(jobs) + Add(steps) + Finalize")
	}
}
