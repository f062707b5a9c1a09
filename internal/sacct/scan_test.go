package sacct

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"slurmsight/internal/slurm"
)

// randomStore builds a store of nRecs records with random submit times
// across a few months, random users/accounts/partitions/states, and a
// mix of job and step rows.
func randomStore(rng *rand.Rand, nRecs int) *Store {
	users := []string{"alice", "bob", "carol", "dave"}
	accounts := []string{"csc000", "mat101", "bio202"}
	partitions := []string{"batch", "debug"}
	states := []slurm.State{slurm.StateCompleted, slurm.StateFailed, slurm.StateCancelled, slurm.StateTimeout}
	origin := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	st := NewStore()
	for i := 0; i < nRecs; i++ {
		id := slurm.NewJobID(int64(100000 + rng.Intn(nRecs)))
		if rng.Intn(3) == 0 {
			id = id.WithStep(int64(rng.Intn(4)))
		}
		submit := origin.Add(time.Duration(rng.Int63n(int64(100 * 24 * time.Hour))))
		if err := st.Add(slurm.Record{
			ID:        id,
			User:      users[rng.Intn(len(users))],
			Account:   accounts[rng.Intn(len(accounts))],
			Partition: partitions[rng.Intn(len(partitions))],
			State:     states[rng.Intn(len(states))],
			Submit:    submit,
			Start:     submit.Add(time.Hour),
			End:       submit.Add(2 * time.Hour),
			Elapsed:   time.Hour,
			NNodes:    int64(1 + rng.Intn(512)),
		}); err != nil {
			panic(err)
		}
	}
	return st
}

// randomQuery draws a query with a random mix of bounds and filters.
func randomQuery(rng *rand.Rand) Query {
	origin := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	q := Query{IncludeSteps: rng.Intn(2) == 0}
	if rng.Intn(3) != 0 {
		q.Start = origin.Add(time.Duration(rng.Int63n(int64(90 * 24 * time.Hour))))
	}
	if rng.Intn(3) != 0 {
		end := origin.Add(time.Duration(rng.Int63n(int64(110 * 24 * time.Hour))))
		if !q.Start.IsZero() && !q.Start.Before(end) {
			end = q.Start.Add(time.Duration(1 + rng.Int63n(int64(30*24*time.Hour))))
		}
		q.End = end
	}
	if rng.Intn(3) == 0 {
		q.User = []string{"alice", "bob", "nobody"}[rng.Intn(3)]
	}
	if rng.Intn(4) == 0 {
		q.Account = "csc000"
	}
	if rng.Intn(4) == 0 {
		q.Partition = "debug"
	}
	if rng.Intn(4) == 0 {
		q.State = "COMPLETED"
	}
	return q
}

// bruteMatches is the reference row test: the query's meaning spelled
// out in one place, with no plan, filter order or column in sight.
func bruteMatches(t *testing.T, q *Query, r *slurm.Record) bool {
	t.Helper()
	if q.State != "" {
		st, err := slurm.ParseState(q.State)
		if err != nil {
			t.Fatal(err)
		}
		if r.State != st {
			return false
		}
	}
	return (q.IncludeSteps || !r.IsStep()) &&
		(q.Start.IsZero() || !r.Submit.Before(q.Start)) &&
		(q.End.IsZero() || r.Submit.Before(q.End)) &&
		(q.User == "" || r.User == q.User) &&
		(q.Account == "" || r.Account == q.Account) &&
		(q.Partition == "" || r.Partition == q.Partition)
}

// bruteSelect is the reference implementation: full scans of every shard
// in month order, matching each record individually. Scan and Select
// must agree with it exactly, records and order both.
func bruteSelect(t *testing.T, s *Store, q Query) []slurm.Record {
	t.Helper()
	var out []slurm.Record
	for _, m := range s.Months() {
		shard := s.months[m].mem
		for i := range shard {
			if bruteMatches(t, &q, &shard[i]) {
				out = append(out, shard[i])
			}
		}
	}
	return out
}

func TestScanSelectAgreeWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		s := randomStore(rng, 200+rng.Intn(400))
		if trial%2 == 0 {
			s.Finalize() // exercise both sorted and unsorted shard paths
		}
		for qi := 0; qi < 10; qi++ {
			q := randomQuery(rng)
			want := bruteSelect(t, s, q)

			got, err := s.Select(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d query %+v: Select %d records, brute force %d",
					trial, q, len(got), len(want))
			}
			var scanned []slurm.Record
			for r, err := range s.Scan(q) {
				if err != nil {
					t.Fatal(err)
				}
				scanned = append(scanned, *r)
			}
			for i := range want {
				if got[i].ID != want[i].ID || !got[i].Submit.Equal(want[i].Submit) {
					t.Fatalf("trial %d: Select[%d] = %v@%v, want %v@%v",
						trial, i, got[i].ID, got[i].Submit, want[i].ID, want[i].Submit)
				}
				if scanned[i].ID != want[i].ID {
					t.Fatalf("trial %d: Scan[%d] = %v, want %v", trial, i, scanned[i].ID, want[i].ID)
				}
			}
			if len(scanned) != len(want) {
				t.Fatalf("trial %d: Scan %d records, want %d", trial, len(scanned), len(want))
			}
		}
	}
}

func TestScanInvalidQuery(t *testing.T) {
	s := NewStore()
	sawErr := false
	for _, err := range s.Scan(Query{Fields: []string{"Mystery"}}) {
		if err != nil {
			sawErr = true
		}
	}
	if !sawErr {
		t.Error("invalid query: want terminal error from Scan")
	}
}

func TestScanEarlyBreak(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := randomStore(rng, 100)
	s.Finalize()
	n := 0
	for _, err := range s.Scan(Query{IncludeSteps: true}) {
		if err != nil {
			t.Fatal(err)
		}
		n++
		if n == 5 {
			break
		}
	}
	if n != 5 {
		t.Errorf("broke after %d records", n)
	}
}

// TestFinalizeSkipsSortedShards: Add lands shuffled rows in scan order,
// so Finalize has nothing left to do — it moves no row, copies no slice
// and leaves the generation where it was — and a late Add keeps the order
// without it.
func TestFinalizeSkipsSortedShards(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := randomStore(rng, 300)
	firsts := map[Month]*slurm.Record{}
	for _, m := range s.Months() {
		shard := s.months[m].mem
		if !slices.IsSortedFunc(shard, recordCmp) {
			t.Fatalf("shard %v out of scan order straight after Add", m)
		}
		firsts[m] = &shard[0]
	}
	gen, before := s.Generation(), scanKeys(t, s)
	s.Finalize()
	if s.Generation() != gen {
		t.Errorf("Finalize moved the generation %d → %d", gen, s.Generation())
	}
	for m, first := range firsts {
		if &s.months[m].mem[0] != first {
			t.Errorf("Finalize copied shard %v", m)
		}
	}
	if !slices.Equal(scanKeys(t, s), before) {
		t.Error("Finalize changed the scan")
	}
	if err := s.Add(slurm.Record{ID: slurm.NewJobID(1), Submit: time.Date(2024, 2, 2, 0, 0, 0, 0, time.UTC)}); err != nil {
		t.Fatal(err)
	}
	if feb := s.months[Month{2024, time.February}].mem; !slices.IsSortedFunc(feb, recordCmp) {
		t.Error("a late Add left the month out of scan order")
	}
}

// BenchmarkAdd measures Add of 50,000 rows into one month, already in
// scan order (the reload-from-dump case: every row appends in place) and
// shuffled (nearly every row is late: one sort and one merge).
func BenchmarkAdd(b *testing.B) {
	build := func(n int, shuffle bool) []slurm.Record {
		rng := rand.New(rand.NewSource(3))
		recs := make([]slurm.Record, n)
		origin := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
		for i := range recs {
			recs[i] = slurm.Record{
				ID:     slurm.NewJobID(int64(100000 + i)),
				Submit: origin.Add(time.Duration(i) * time.Second),
			}
		}
		if shuffle {
			rng.Shuffle(n, func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
		}
		return recs
	}
	for _, bench := range []struct {
		name    string
		shuffle bool
	}{{"presorted", false}, {"shuffled", true}} {
		b.Run(bench.name, func(b *testing.B) {
			recs := build(50000, bench.shuffle)
			for i := 0; i < b.N; i++ {
				if err := NewStore().Add(recs...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
