package curate

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slurmsight/internal/obs"
	"slurmsight/internal/slurm"
)

// buildPeriod writes a pipe trace of n rows, sprinkling malformed rows
// at a deterministic random set of positions, and returns its path.
func buildPeriod(t testing.TB, rng *rand.Rand, n int) string {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("JobID|User|State|Elapsed|Timelimit|NNodes\n")
	users := []string{"alice", "bob", "carol", "dave", "eve"}
	for i := 0; i < n; i++ {
		switch rng.Intn(12) {
		case 0: // truncated mid-record
			fmt.Fprintf(&sb, "%d|%s|COMPLE\n", 100000+i, users[i%len(users)])
		case 1: // bad duration
			fmt.Fprintf(&sb, "%d|%s|COMPLETED|xx:yy:zz|01:00:00|4\n", 100000+i, users[i%len(users)])
		default:
			fmt.Fprintf(&sb, "%d|%s|COMPLETED|%02d:%02d:00|0%d:00:00|%d\n",
				100000+i, users[i%len(users)], rng.Intn(24), rng.Intn(60), 1+rng.Intn(9), 1+rng.Intn(512))
		}
	}
	path := filepath.Join(t.TempDir(), "period.txt")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestStreamFileParallelMatchesSequential is the width-parity property:
// at every worker count the stage must produce the same records in the
// same order, an equal Report, and a byte-identical CSV sidecar to the
// one-chunk pass.
func TestStreamFileParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	in := buildPeriod(t, rng, 400)
	dir := t.TempDir()
	fields := slurm.SelectedNames()

	var seqRep Report
	var seqRecs []string
	var seqBytes []byte
	for _, workers := range []int{1, 2, 4, 8} {
		parCSV := filepath.Join(dir, fmt.Sprintf("par%d.csv", workers))
		opts := DefaultOptions()
		opts.Workers = workers
		reg := obs.NewRegistry()
		opts.Metrics = reg
		var rep Report
		perChunk := make([][]string, workers) // chunk indices are unique and < workers
		chunks, err := StreamFileParallel(in, parCSV, opts, &rep,
			func(chunk int) func(*slurm.Record) bool {
				recs := &perChunk[chunk]
				return func(rec *slurm.Record) bool {
					enc, eerr := slurm.EncodeRecord(rec, fields)
					if eerr != nil {
						panic(eerr)
					}
					*recs = append(*recs, enc)
					return true
				}
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if chunks < 1 || chunks > workers {
			t.Errorf("workers=%d: %d chunks", workers, chunks)
		}
		if got := reg.Counter("ingest_chunks_total").Value(); got != int64(chunks) {
			t.Errorf("workers=%d: ingest_chunks_total=%d, want %d", workers, got, chunks)
		}
		if got := reg.Histogram("ingest_chunk_rows", obs.SizeBuckets).Count(); got != int64(chunks) {
			t.Errorf("workers=%d: ingest_chunk_rows count=%d, want %d", workers, got, chunks)
		}
		var parRecs []string
		for i := 0; i < chunks; i++ {
			parRecs = append(parRecs, perChunk[i]...)
		}
		parBytes, err := os.ReadFile(parCSV)
		if err != nil {
			t.Fatal(err)
		}
		// No spill files may survive.
		if leftovers, _ := filepath.Glob(parCSV + ".part*"); len(leftovers) != 0 {
			t.Errorf("workers=%d: spill files left behind: %v", workers, leftovers)
		}
		if workers == 1 {
			seqRep, seqRecs, seqBytes = rep, parRecs, parBytes
			if rep.Kept == 0 || rep.Malformed == 0 || len(parRecs) != rep.Kept {
				t.Fatalf("degenerate reference: %+v with %d records", rep, len(parRecs))
			}
			continue
		}
		if rep != seqRep {
			t.Errorf("workers=%d: report %+v, one chunk %+v", workers, rep, seqRep)
		}
		if len(parRecs) != len(seqRecs) {
			t.Fatalf("workers=%d: %d records, one chunk %d", workers, len(parRecs), len(seqRecs))
		}
		for i := range seqRecs {
			if parRecs[i] != seqRecs[i] {
				t.Fatalf("workers=%d record %d differs:\none: %s\npar: %s", workers, i, seqRecs[i], parRecs[i])
			}
		}
		if string(parBytes) != string(seqBytes) {
			t.Errorf("workers=%d: sidecar differs from one chunk (%d vs %d bytes)",
				workers, len(parBytes), len(seqBytes))
		}
	}
}

func TestStreamFileParallelEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := buildPeriod(t, rng, 300)
	opts := DefaultOptions()
	opts.Workers = 4
	var rep Report
	seen := 0
	_, err := StreamFileParallel(in, "", opts, &rep,
		func(chunk int) func(*slurm.Record) bool {
			if chunk != 0 {
				return nil
			}
			return func(*slurm.Record) bool {
				seen++
				return seen < 5 // stop the whole stream from chunk 0
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 5 {
		t.Errorf("consumer saw %d records after asking to stop at 5", seen)
	}
	// Counters reflect only the rows processed before the stop.
	if rep.Total >= 300 {
		t.Errorf("early stop still decoded every row: %+v", rep)
	}
}

func TestStreamFileParallelCreateErrorCarriesPath(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := buildPeriod(t, rng, 10)
	badCSV := filepath.Join(t.TempDir(), "missing-dir", "out.csv")
	opts := DefaultOptions()
	opts.Workers = 2
	var rep Report
	_, err := StreamFileParallel(in, badCSV, opts, &rep, nil)
	if err == nil || !strings.Contains(err.Error(), "out.csv") {
		t.Errorf("create error lacks sidecar path: %v", err)
	}
}

func TestStreamFileParallelTerminalError(t *testing.T) {
	// A row past the reader's cap is a terminal decode error; the stage
	// must surface it naming the input path and the line, and still
	// clean up its spills.
	dir := t.TempDir()
	in := filepath.Join(dir, "huge.txt")
	body := "JobID|User\n1|alice\n2|" + strings.Repeat("x", slurm.MaxLineLen+5) + "\n3|bob\n"
	if err := os.WriteFile(in, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	csvPath := filepath.Join(dir, "huge.csv")
	for _, w := range widths {
		opts := DefaultOptions()
		opts.Workers = w
		var rep Report
		_, err := StreamFileParallel(in, csvPath, opts, &rep, nil)
		if err == nil || !strings.HasSuffix(err.Error(), "huge.txt: slurm: line 3: row exceeds 8388608 bytes") {
			t.Errorf("workers=%d: terminal error = %v, want the input path and line 3", w, err)
		}
		if leftovers, _ := filepath.Glob(csvPath + ".part*"); len(leftovers) != 0 {
			t.Errorf("workers=%d: spill files left behind after terminal error: %v", w, leftovers)
		}
	}
}

// failWriter fails every write after the first n bytes have passed.
type failWriter struct {
	n int
}

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, fmt.Errorf("disk full")
	}
	w.n -= len(p)
	return len(p), nil
}

func TestStreamEarlyStopCountsSidecarErrors(t *testing.T) {
	// When the consumer has already stopped, a sidecar flush failure
	// cannot be returned as the stream's error — it must be counted, not
	// dropped. /dev/full accepts the open and refuses every write.
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to fail writes on")
	}
	cs, err := slurm.NewChunkScanner(writePeriod(t, sample), 1)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	var stopped atomic.Bool
	abandon := func(int) func(*slurm.Record) bool {
		return func(*slurm.Record) bool { return false }
	}
	if err := runChunk(cs, 0, "/dev/full", DefaultOptions(), &rep, abandon, &stopped, chunkMetrics{}); err != nil {
		t.Fatalf("a failure after the stop surfaced as an error: %v", err)
	}
	if !stopped.Load() || rep.Kept != 1 || rep.SidecarErrors == 0 {
		t.Errorf("flush failure after early stop not counted: stopped=%v %+v", stopped.Load(), rep)
	}
}

// buildTRESPeriod writes n full-selection rows whose ReqTRES and
// TRESUsageInAve cells have the simulator's shape, cycling a few users so
// the decoder's interner stops growing after the first rows.
func buildTRESPeriod(t *testing.T, n int) string {
	t.Helper()
	fields := slurm.SelectedNames()
	var sb strings.Builder
	sb.WriteString(slurm.Header(fields))
	sb.WriteByte('\n')
	base := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		nodes := int64(1 + i%4)
		rec := slurm.Record{
			ID: slurm.NewJobID(int64(100000 + i)), User: fmt.Sprintf("u%d", i%5), Account: "csc000",
			Cluster: "frontier", Partition: "batch", State: slurm.StateCompleted,
			Submit: base.Add(time.Duration(i) * time.Minute), Start: base.Add(time.Duration(i+5) * time.Minute),
			End: base.Add(time.Duration(i+65) * time.Minute), Elapsed: time.Hour, Timelimit: 2 * time.Hour,
			NNodes: nodes, NCPUs: 56 * nodes, Flags: []string{slurm.FlagBackfill},
			TRESReq:        slurm.TRES{"cpu": 56 * nodes, "mem": nodes * 512 << 30, "node": nodes, "gres/gpu": 8 * nodes},
			TRESUsageInAve: slurm.TRES{"cpu": 40 * nodes, "mem": int64(i%7+1) << 30},
		}
		line, err := slurm.EncodeRecord(&rec, fields)
		if err != nil {
			t.Fatal(err)
		}
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
	path := filepath.Join(t.TempDir(), fmt.Sprintf("period%d.txt", n))
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestStreamFileParallelAllocsDoNotScaleWithRows is the curate stage's
// allocation pin: with a sidecar and a consumer that reads the TRES
// maps, at one worker and at two, a period of 4N TRES-bearing rows costs
// what a period of N costs, give or take a few buffer growth steps.
func TestStreamFileParallelAllocsDoNotScaleWithRows(t *testing.T) {
	const n = 500
	small, large := buildTRESPeriod(t, n), buildTRESPeriod(t, 4*n)
	csvPath := filepath.Join(t.TempDir(), "out.csv")
	for _, workers := range []int{1, 2} {
		opts := DefaultOptions()
		opts.Workers = workers
		allocs := func(in string, rows int) float64 {
			return testing.AllocsPerRun(3, func() {
				var rep Report
				var gpus atomic.Int64
				_, err := StreamFileParallel(in, csvPath, opts, &rep, func(int) func(*slurm.Record) bool {
					return func(rec *slurm.Record) bool {
						gpus.Add(rec.TRESReq["gres/gpu"])
						return true
					}
				})
				if err != nil || rep.Kept != rows || gpus.Load() == 0 {
					t.Fatalf("workers=%d: kept %d of %d rows (gpus %d), %v", workers, rep.Kept, rows, gpus.Load(), err)
				}
			})
		}
		a, b := allocs(small, n), allocs(large, 4*n)
		t.Logf("workers=%d: %v allocs for %d rows, %v for %d", workers, a, n, b, 4*n)
		if b-a > 8 {
			t.Errorf("workers=%d: curate allocates %v times for %d rows and %v for %d: it allocates per row", workers, a, n, b, 4*n)
		}
	}
}

// BenchmarkStreamFileParallelMetrics streams one 300,000-row period with
// no registry and with one attached: the counters are added once per
// chunk, so the two should sit within noise of each other.
func BenchmarkStreamFileParallelMetrics(b *testing.B) {
	in := buildPeriod(b, rand.New(rand.NewSource(1)), 300_000)
	for _, mode := range []struct {
		name string
		reg  *obs.Registry
	}{{"off", nil}, {"on", obs.NewRegistry()}} {
		b.Run(mode.name, func(b *testing.B) {
			opts := DefaultOptions()
			opts.Workers = 2
			opts.Metrics = mode.reg
			for i := 0; i < b.N; i++ {
				var rep Report
				if _, err := StreamFileParallel(in, "", opts, &rep, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestStreamFileParallelConcurrentPeriods runs several period tasks
// concurrently — the core.Run shape — and checks each still matches its
// own one-chunk pass.
func TestStreamFileParallelConcurrentPeriods(t *testing.T) {
	const periods = 4
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
}
