package curate

import (
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"slurmsight/internal/pool"
)

// TestStreamFileParallelPoolParity pins the shared-pool contract: a
// period task that can only borrow a few (or zero) extra decoder slots
// still produces the one-chunk pass's sidecar and Report exactly — the
// pool throttles width, never output — and every borrowed slot is back
// in the pool when the call returns.
func TestStreamFileParallelPoolParity(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	in := buildPeriod(t, rng, 400)
	dir := t.TempDir()

	seqCSV := filepath.Join(dir, "seq.csv")
	var seqRep Report
	if _, err := StreamFileParallel(in, seqCSV, DefaultOptions(), &seqRep, nil); err != nil {
		t.Fatal(err)
	}
	seqBytes, err := os.ReadFile(seqCSV)
	if err != nil {
		t.Fatal(err)
	}

	for _, budget := range []int{0, 1, 3} {
		p := pool.New(budget)
		csv := filepath.Join(dir, "pool.csv")
		opts := DefaultOptions()
		opts.Workers = 8
		opts.Pool = p
		var rep Report
		if _, err := StreamFileParallel(in, csv, opts, &rep, nil); err != nil {
			t.Fatalf("budget=%d: %v", budget, err)
		}
		if rep != seqRep {
			t.Errorf("budget=%d: report %+v, one chunk %+v", budget, rep, seqRep)
		}
		got, err := os.ReadFile(csv)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(seqBytes) {
			t.Errorf("budget=%d: sidecar differs from one chunk", budget)
		}
		if p.Free() != budget {
			t.Errorf("budget=%d: %d slots free after the call, want all returned", budget, p.Free())
		}
	}
}

// TestStreamFileParallelPoolSharedAcrossPeriods runs several period
// tasks concurrently against one small pool — the core.Run shape — and
// checks each still matches its own one-chunk pass.
func TestStreamFileParallelPoolSharedAcrossPeriods(t *testing.T) {
	const periods = 4
	p := pool.New(2)
	type period struct {
		in, seqCSV, parCSV string
		seqRep             Report
	}
	var ps []period
	dir := t.TempDir()
	for i := 0; i < periods; i++ {
		rng := rand.New(rand.NewSource(int64(100 + i)))
		pd := period{
			in:     buildPeriod(t, rng, 300),
			seqCSV: filepath.Join(dir, "seq"+string(rune('a'+i))+".csv"),
			parCSV: filepath.Join(dir, "par"+string(rune('a'+i))+".csv"),
		}
		if _, err := StreamFileParallel(pd.in, pd.seqCSV, DefaultOptions(), &pd.seqRep, nil); err != nil {
			t.Fatal(err)
		}
		ps = append(ps, pd)
	}

	var wg sync.WaitGroup
	errs := make([]error, periods)
	reps := make([]Report, periods)
	for i := range ps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			opts := DefaultOptions()
			opts.Workers = 4
			opts.Pool = p
			_, errs[i] = StreamFileParallel(ps[i].in, ps[i].parCSV, opts, &reps[i], nil)
		}()
	}
	wg.Wait()

	for i, pd := range ps {
		if errs[i] != nil {
			t.Fatalf("period %d: %v", i, errs[i])
		}
		if reps[i] != pd.seqRep {
			t.Errorf("period %d: report diverges from one chunk", i)
		}
		want, err := os.ReadFile(pd.seqCSV)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(pd.parCSV)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("period %d: sidecar diverges from one chunk", i)
		}
	}
	if p.Free() != 2 {
		t.Errorf("%d slots free after all periods, want 2", p.Free())
	}
}
