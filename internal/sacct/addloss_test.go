package sacct

import (
	"io"
	"os"
	"sync"
	"testing"
	"time"

	"slurmsight/internal/slurm"
)

// corruptFirstColumn flips one byte inside the first shard's first
// column region (columns start right after the 12-byte header), leaving
// the footer CRC intact: the file opens fine and the damage only
// surfaces when that shard's columns are decoded.
func corruptFirstColumn(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[12] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestAddIntoCorruptLazyShardSurfacesError pins the Add data-loss fix:
// appending into a month whose sealed shard fails verification must
// return the error, leave the store's row count untouched (the on-disk
// rows stay visible, the new record is not half-inserted), and leave
// the generation alone. Before the fix Add swallowed the decode error
// and appended anyway, silently dropping every on-disk row in that
// month.
func TestAddIntoCorruptLazyShardSurfacesError(t *testing.T) {
	st, _ := buildStore(t, 40)
	path := dumpBinary(t, st)
	corruptFirstColumn(t, path)

	bin, err := OpenBinary(path)
	if err != nil {
		t.Fatalf("open with intact footer: %v", err)
	}
	defer bin.Close()

	months := bin.Months()
	if len(months) < 2 {
		t.Fatalf("want >= 2 months, got %v", months)
	}
	wantLen := bin.Len()
	wantGen := bin.Generation()

	extra := slurm.Record{
		ID:     slurm.NewJobID(9_999_999),
		User:   "late",
		Submit: months[0].Start().Add(12 * time.Hour),
		State:  slurm.StateCompleted,
		NNodes: 1,
	}
	if err := bin.Add(extra); err == nil {
		t.Fatal("Add into a corrupt lazy shard returned nil — the data-loss bug is back")
	}
	if got := bin.Len(); got != wantLen {
		t.Fatalf("Len after failed Add = %d, want %d (rows vanished)", got, wantLen)
	}
	if got := bin.Generation(); got != wantGen {
		t.Fatalf("generation after failed Add = %d, want %d (nothing landed)", got, wantGen)
	}
	// The corruption still surfaces on a scan of that month...
	if _, err := bin.Select(Query{End: months[0].Next().Start()}); err == nil {
		t.Fatal("scan of the corrupt month succeeded")
	}
	// ...while untouched months stay readable.
	rows, err := bin.Select(Query{Start: months[1].Start(), IncludeSteps: true})
	if err != nil {
		t.Fatalf("scan of a healthy month: %v", err)
	}
	if len(rows) == 0 {
		t.Fatal("healthy month returned no rows")
	}
}

// TestAddPartialBatchBumpsGeneration pins the partial-application
// contract: when a batch fails mid-way, records already inserted stay
// inserted and the generation moves so cached responses cannot claim
// the pre-batch state is current.
func TestAddPartialBatchBumpsGeneration(t *testing.T) {
	st, _ := buildStore(t, 40)
	path := dumpBinary(t, st)
	corruptFirstColumn(t, path)

	bin, err := OpenBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	defer bin.Close()
	months := bin.Months()
	gen0 := bin.Generation()

	good := slurm.Record{
		ID:     slurm.NewJobID(9_000_001),
		User:   "ok",
		Submit: time.Date(2031, 1, 1, 0, 0, 0, 0, time.UTC), // fresh month
		State:  slurm.StateCompleted,
	}
	bad := slurm.Record{
		ID:     slurm.NewJobID(9_000_002),
		User:   "doomed",
		Submit: months[0].Start().Add(time.Hour), // corrupt month
		State:  slurm.StateCompleted,
	}
	if err := bin.Add(good, bad); err == nil {
		t.Fatal("batch touching the corrupt shard returned nil")
	}
	if got := bin.Generation(); got <= gen0 {
		t.Fatalf("generation = %d after a partially applied batch, want > %d", got, gen0)
	}
	rows, err := bin.Select(Query{Start: good.Submit.Add(-time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].User != "ok" {
		t.Fatalf("pre-failure record not visible: %v", rows)
	}
}

// TestQueryWindowOutsideDataSkipsShards pins the extent short-circuit:
// a window that overlaps a shard's calendar month but misses its actual
// submit range must answer without decoding a single column.
func TestQueryWindowOutsideDataSkipsShards(t *testing.T) {
	st, _ := buildStore(t, 40) // submissions span 2024-01-10 .. 2024-02-19
	bin, err := OpenBinary(dumpBinary(t, st))
	if err != nil {
		t.Fatal(err)
	}
	defer bin.Close()

	windows := []Query{
		{Start: time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC), End: time.Date(2024, 1, 5, 0, 0, 0, 0, time.UTC)},   // before the data, same month
		{Start: time.Date(2024, 2, 25, 0, 0, 0, 0, time.UTC), End: time.Date(2024, 2, 27, 0, 0, 0, 0, time.UTC)}, // after the data, same month
	}
	for i, q := range windows {
		rows, err := bin.Select(q)
		if err != nil {
			t.Fatalf("window %d: %v", i, err)
		}
		if len(rows) != 0 {
			t.Fatalf("window %d: got %d rows, want 0", i, len(rows))
		}
	}
	stats, ok := bin.ColstoreStats()
	if !ok {
		t.Fatal("no colstore stats on a binary store")
	}
	if stats.ShardsOpened != 0 {
		t.Fatalf("empty-window queries decoded %d shards, want 0", stats.ShardsOpened)
	}
	// Control: a window that does touch data decodes something.
	if _, err := bin.Select(Query{Start: base, End: base.AddDate(0, 0, 2)}); err != nil {
		t.Fatal(err)
	}
	stats, _ = bin.ColstoreStats()
	if stats.ShardsOpened == 0 {
		t.Fatal("control query decoded nothing")
	}
}

// TestConcurrentAddScanRace hammers the live-store contract under the
// race detector: one appender (Add + periodic Finalize) against
// concurrent projected scans, Len, Months, and Generation reads over a
// mixed materialised/lazy store.
func TestConcurrentAddScanRace(t *testing.T) {
	st, _ := buildStore(t, 40)
	bin, err := OpenBinary(dumpBinary(t, st))
	if err != nil {
		t.Fatal(err)
	}
	defer bin.Close()
	months := bin.Months()
	// Add into the first month so sealed and in-memory rows coexist in it,
	// unsorted until the appender's first Finalize.
	late := slurm.Record{ID: slurm.NewJobID(4_999_999), User: "raceuser", Submit: months[0].Start().Add(36 * time.Hour), State: slurm.StateCompleted}
	if err := bin.Add(late); err != nil {
		t.Fatal(err)
	}

	const appends = 300
	stop := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		sub := time.Date(2030, 6, 1, 0, 0, 0, 0, time.UTC)
		for i := 0; i < appends; i++ {
			r := slurm.Record{
				ID:     slurm.NewJobID(int64(5_000_000 + i)),
				User:   "raceuser",
				Submit: sub,
				State:  slurm.StateCompleted,
				NNodes: 1,
			}
			sub = sub.Add(time.Minute)
			if err := bin.Add(r); err != nil {
				t.Errorf("Add: %v", err)
				return
			}
			if i%16 == 0 {
				bin.Finalize()
			}
		}
	}()

	queries := []Query{
		{Fields: []string{"JobID", "User"}},
		{Fields: []string{"JobID", "Submit"}, Start: base, End: base.AddDate(0, 0, 20)},
		{Fields: []string{"JobID"}, User: "raceuser", Start: time.Date(2030, 6, 1, 0, 0, 0, 0, time.UTC)},
		{IncludeSteps: true, Fields: []string{"JobID", "State"}},
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := bin.WriteN(io.Discard, queries[(w+i)%len(queries)], 64); err != nil {
					t.Errorf("reader %d: %v", w, err)
					return
				}
				_ = bin.Len()
				_ = bin.Months()
				_ = bin.Generation()
			}
		}(w)
	}
	wg.Wait()

	bin.Finalize()
	rows, err := bin.Select(Query{User: "raceuser", Start: time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != appends {
		t.Fatalf("after the dust settles: %d appended rows visible, want %d", len(rows), appends)
	}
	if rows, err = bin.Select(Query{User: "raceuser"}); err != nil || len(rows) != appends+1 {
		t.Fatalf("with the row added beside the sealed month: %d rows, %v, want %d", len(rows), err, appends+1)
	}
}
