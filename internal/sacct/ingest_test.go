package sacct

import "testing"

// TestIngestGrowsEachShardOnce pins the bulk-load sizing: Ingest counts
// what a result adds to each month and grows that shard once, so its
// allocations are a handful however many rows arrive — not the dozens of
// re-copying growth steps per shard that Add alone takes.
func TestIngestGrowsEachShardOnce(t *testing.T) {
	_, res := buildStore(t, 40)
	var st *Store
	allocs := testing.AllocsPerRun(3, func() {
		st = NewStore()
		if err := st.Ingest(res); err != nil {
			t.Fatal(err)
		}
	})
	if want := len(res.Jobs) + len(res.Steps); st.Len() != want {
		t.Fatalf("Len = %d, want %d", st.Len(), want)
	}
	// NewStore's five, the count map, one grow per month, map growth.
	if limit := float64(12 + 2*len(st.Months())); allocs > limit {
		t.Errorf("Ingest of %d rows into %d months allocates %v times, want <= %v", st.Len(), len(st.Months()), allocs, limit)
	}
}
