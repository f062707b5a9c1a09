package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"slurmsight/internal/analyze"
	"slurmsight/internal/cluster"
	"slurmsight/internal/core"
	"slurmsight/internal/obs"
	"slurmsight/internal/sacct"
	"slurmsight/internal/sched"
	"slurmsight/internal/slurm"
	"slurmsight/internal/tracegen"
)

var liveFields = []string{"JobID", "User", "Account", "Partition", "Submit", "Start", "End", "Elapsed", "Timelimit", "State", "NNodes", "NCPUS", "Backfill", "Comment"}

func figureKeys() []string { return append(core.FigureKeys(), core.ExtendedFigureKeys()...) }

// liveBatch renders records as a pipe-text body with every column a
// collector reads.
func liveBatch(t testing.TB, recs []slurm.Record) []byte {
	t.Helper()
	return encodeBatch(t, liveFields, recs)
}

// liveJob draws one job every collector has something to say about:
// mixed end states and classes, some backfilled, some never started.
func liveJob(rng *rand.Rand, id int64, submit time.Time) slurm.Record {
	states := []slurm.State{slurm.StateCompleted, slurm.StateCompleted, slurm.StateFailed, slurm.StateTimeout, slurm.StateCancelled}
	elapsed := time.Duration(1+rng.Intn(600)) * time.Minute
	wait := time.Duration(rng.Intn(5*3600)) * time.Second
	r := slurm.Record{
		ID:        slurm.NewJobID(id),
		User:      "u" + strconv.Itoa(rng.Intn(20)),
		Account:   "acct",
		Partition: "batch",
		Submit:    submit,
		Start:     submit.Add(wait),
		End:       submit.Add(wait + elapsed),
		Elapsed:   elapsed,
		Timelimit: elapsed + time.Duration(rng.Intn(300))*time.Minute,
		State:     states[rng.Intn(len(states))],
		NNodes:    int64(1 + rng.Intn(128)),
		Comment:   []string{"", "sim", "ml", "io"}[rng.Intn(4)],
	}
	r.NCPUs = 8 * r.NNodes
	if rng.Intn(3) == 0 {
		r.Flags = []string{slurm.FlagBackfill}
	}
	if rng.Intn(10) == 0 { // cancelled in the queue
		r.Start, r.Elapsed, r.State = time.Time{}, 0, slurm.StateCancelled
		r.End = submit.Add(wait)
	}
	return r
}

// coldFigures is the reference the serving plane must match byte for
// byte: a fresh scan of the store, a fresh bundle, the seven charts.
func coldFigures(store *sacct.Store, system string) (map[string][]byte, error) {
	b, err := analyze.Collect(store.Scan(sacct.Query{IncludeSteps: true}), core.TimelineBucket)
	if err != nil {
		return nil, err
	}
	out := map[string][]byte{}
	for _, key := range figureKeys() {
		chart, err := core.ChartFromBundle(key, system, b, 15, 0)
		if err != nil {
			return nil, err
		}
		if out[key], err = chart.JSON(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func serveDirect(h http.Handler, method, url string, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(method, url, bytes.NewReader(body)))
	return w
}

// checkFigures fetches all seven figures and holds them to a cold
// re-collect of the same store and to the generation the caller saw
// acknowledged.
func checkFigures(t *testing.T, h http.Handler, store *sacct.Store, gen uint64, when string) {
	t.Helper()
	want, err := coldFigures(store, "cluster")
	if err != nil {
		t.Fatalf("%s: reference: %v", when, err)
	}
	for _, key := range figureKeys() {
		w := serveDirect(h, "GET", "/figures/"+key+".json", nil)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: %s: status %d: %s", when, key, w.Code, w.Body)
		}
		if got := w.Header().Get("X-Store-Generation"); got != strconv.FormatUint(gen, 10) {
			t.Fatalf("%s: %s: X-Store-Generation %s, want the acked %d", when, key, got, gen)
		}
		if !bytes.Equal(w.Body.Bytes(), want[key]) {
			t.Fatalf("%s: %s: body differs from a cold re-collect of the same store", when, key)
		}
	}
}

// TestResidentBundleMatchesColdCollect drives a seeded stream of batches
// of every shape a live store meets — tail, late into an old month,
// across a month boundary, duplicate (submit, id) keys, unsorted inside
// the batch, and a period file tailed by a Watcher — and after each one
// requires all seven figures, at the acked generation, to be
// byte-identical to a cold collect of the same store.
func TestResidentBundleMatchesColdCollect(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
		cursor := start
		id := int64(1000)
		var tailRec slurm.Record // the record with the latest submit so far
		next := func(step time.Duration) slurm.Record {
			cursor = cursor.Add(time.Duration(1+rng.Int63n(int64(step/time.Second))) * time.Second)
			id++
			tailRec = liveJob(rng, id, cursor)
			return tailRec
		}

		// Three months on disk, untouched when the first batch arrives.
		mem := sacct.NewStore()
		var all []slurm.Record
		for cursor.Before(start.AddDate(0, 2, 20)) {
			r := next(3 * time.Hour)
			all = append(all, r)
			if rng.Intn(4) == 0 {
				step := r
				step.ID = r.ID.WithStep(0)
				all = append(all, step)
			}
		}
		if err := mem.Add(all...); err != nil {
			t.Fatal(err)
		}
		mem.Finalize()
		path := filepath.Join(t.TempDir(), "base.colstore")
		if err := mem.DumpBinaryFile(path); err != nil {
			t.Fatal(err)
		}
		store, err := sacct.OpenBinary(path)
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		reg := obs.NewRegistry()
		srv, err := New(Config{Store: store, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()

		period := filepath.Join(t.TempDir(), "slurm-live.txt")
		if err := os.WriteFile(period, []byte(slurm.Header(liveFields)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		watcher := &Watcher{Path: period, Server: srv}
		bundlePath := func(path string) int64 {
			return reg.Counter(obs.Label("serve_figure_bundle_total", "path", path)).Value()
		}

		kinds := []string{"late", "tail", "tail", "span", "dup", "tail", "shuffled", "watcher", "tail", "late"}
		for i := 0; i < 30; i++ {
			kind := kinds[i%len(kinds)]
			var batch []slurm.Record
			switch kind {
			case "tail", "shuffled", "watcher":
				for n := 1 + rng.Intn(20); n > 0; n-- {
					batch = append(batch, next(time.Hour))
				}
			case "late":
				for n := 1 + rng.Intn(20); n > 0; n-- {
					id++
					batch = append(batch, liveJob(rng, id, start.Add(time.Duration(rng.Intn(31*24*3600))*time.Second)))
				}
			case "span": // from the last days of the tail month into the next
				cursor = sacct.MonthOf(cursor).Next().Start().Add(-36 * time.Hour)
				for n := 12; n > 0; n-- {
					batch = append(batch, next(12*time.Hour))
				}
			case "dup": // keys the store already holds, the tail record among them
				batch = append(batch, tailRec, all[rng.Intn(len(all))], next(time.Hour))
				batch[0].User, batch[1].User = "dup0", "dup1"
			}
			if kind == "shuffled" {
				rng.Shuffle(len(batch), func(a, b int) { batch[a], batch[b] = batch[b], batch[a] })
			}
			all = append(all, batch...)
			when := "seed " + strconv.FormatInt(seed, 10) + " batch " + strconv.Itoa(i) + " (" + kind + ")"

			gen0 := store.Generation()
			incremental0, recollect0 := bundlePath("incremental"), bundlePath("recollect")
			var gen uint64
			if kind == "watcher" {
				f, err := os.OpenFile(period, os.O_APPEND|os.O_WRONLY, 0)
				if err != nil {
					t.Fatal(err)
				}
				body := liveBatch(t, batch)
				if _, err := f.Write(body[bytes.IndexByte(body, '\n')+1:]); err != nil {
					t.Fatal(err)
				}
				f.Close()
				if n, bad, err := watcher.poll(); err != nil || n != len(batch) || bad != 0 {
					t.Fatalf("%s: poll = %d rows, %d malformed, %v", when, n, bad, err)
				}
				gen = store.Generation()
			} else {
				w := serveDirect(h, "POST", "/ingest", liveBatch(t, batch))
				var ack ingestResponse
				if err := json.Unmarshal(w.Body.Bytes(), &ack); err != nil || w.Code != http.StatusOK {
					t.Fatalf("%s: ingest status %d: %s", when, w.Code, w.Body)
				}
				if ack.Rows != len(batch) || ack.Malformed != 0 {
					t.Fatalf("%s: ack %+v for %d rows", when, ack, len(batch))
				}
				gen = ack.Generation
			}
			if gen != gen0+1 {
				t.Fatalf("%s: generation %d → %d, want one step per batch", when, gen0, gen)
			}
			checkFigures(t, h, store, gen, when)
			// A tailed batch reaches the resident bundle like a POSTed one:
			// the figures that follow it absorb it and nothing re-collects.
			if kind == "watcher" && (bundlePath("incremental") == incremental0 || bundlePath("recollect") != recollect0) {
				t.Fatalf("%s: bundle paths after a tailed tail batch: incremental %d → %d, recollect %d → %d, want the first to move and the second not",
					when, incremental0, bundlePath("incremental"), recollect0, bundlePath("recollect"))
			}
		}
		if got := store.Len(); got != len(all) {
			t.Fatalf("seed %d: store holds %d rows, want %d", seed, got, len(all))
		}
		// Both sides of the choice ran, and /metrics says which.
		for _, path := range []string{"cached", "incremental", "recollect"} {
			if reg.Counter(obs.Label("serve_figure_bundle_total", "path", path)).Value() == 0 {
				t.Fatalf("seed %d: no figure took the %s path", seed, path)
			}
		}
	}
}

// TestCollectorColumnsCoverObserve is the authority on
// analyze.ObservedFields: over a simulated trace that fills every record
// field, on disk as sealed columns, a bundle collected from the snapshot
// that decodes only the declared fields renders all seven figures byte for
// byte as one collected from full records does. A collector that starts
// reading a field the list does not name sees zeros in the first bundle,
// and this fails until the list names it.
func TestCollectorColumnsCoverObserve(t *testing.T) {
	start := time.Date(2024, 1, 20, 0, 0, 0, 0, time.UTC)
	p := tracegen.FrontierProfile()
	p.JobsPerDay, p.Users = 40, 30
	reqs, err := tracegen.Generate([]tracegen.Phase{{Profile: p, Start: start, End: start.AddDate(0, 0, 25)}}, 5)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := sched.New(sched.DefaultConfig(cluster.Frontier()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(reqs, sched.Options{EmitSteps: true})
	if err != nil {
		t.Fatal(err)
	}
	mem := sacct.NewStore()
	if err := mem.Ingest(res); err != nil {
		t.Fatal(err)
	}
	mem.Finalize()
	path := filepath.Join(t.TempDir(), "sim.colstore")
	if err := mem.DumpBinaryFile(path); err != nil {
		t.Fatal(err)
	}
	store, err := sacct.OpenBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	want, err := coldFigures(store, "cluster") // public Scan: every column
	if err != nil {
		t.Fatal(err)
	}
	full, err := analyze.Collect(store.Scan(sacct.Query{IncludeSteps: true}), core.TimelineBucket)
	if err != nil {
		t.Fatal(err)
	}
	_, seq, err := store.SnapshotCtx(context.Background(), analyze.ObservedFields())
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := analyze.Collect(seq, core.TimelineBucket)
	if err != nil {
		t.Fatal(err)
	}
	if narrow.Records != int64(store.Len()) || narrow.Jobs == 0 || narrow.Jobs == narrow.Records {
		t.Fatalf("the narrow bundle observed %d records, %d of them jobs, of a store of %d with steps", narrow.Records, narrow.Jobs, store.Len())
	}
	for _, key := range figureKeys() {
		chart, err := core.ChartFromBundle(key, "cluster", narrow, 15, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := chart.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[key]) {
			t.Errorf("%s: collected over %v it differs from the figure collected over full records", key, analyze.ObservedFields())
		}
	}
	// The bundle's two summaries no figure shows are held to it too.
	if len(full.Classes.Result()) < 2 || !reflect.DeepEqual(narrow.Classes.Result(), full.Classes.Result()) {
		t.Errorf("per-class summaries differ (or the trace has under two classes):\n got %+v\nwant %+v", narrow.Classes.Result(), full.Classes.Result())
	}
	if narrow.Reclaim.Result() != full.Reclaim.Result() || full.Reclaim.Result() == 0 {
		t.Errorf("reclaimable node-hours %v, want %v", narrow.Reclaim.Result(), full.Reclaim.Result())
	}
	stats, _ := store.ColstoreStats()
	if months := int64(len(store.Months())); stats.ColumnsRead != (2*59+int64(len(analyze.ObservedFields())))*months {
		t.Errorf("the three collects read %d columns over %d months, want 59, 59 and %d a month", stats.ColumnsRead, months, len(analyze.ObservedFields()))
	}
}

// TestIngestIntoCorruptShardLandsNothing: a batch with rows for a healthy
// month and for a corrupt lazy shard is refused whole, at the generation
// it found, and the figures keep answering what a cold collect of that
// store answers — the decode error.
func TestIngestIntoCorruptShardLandsNothing(t *testing.T) {
	mem := testStore(t, 10)
	feb := time.Date(2024, 2, 3, 0, 0, 0, 0, time.UTC)
	if _, _, err := mem.AppendBatch([]slurm.Record{testRecord(50, feb), testRecord(51, feb.Add(time.Hour))}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "corrupt.colstore")
	if err := mem.DumpBinaryFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[12] ^= 0xFF // first column of the first shard (January); the footer stays valid
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := sacct.OpenBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv, err := New(Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	healthy := "/query?fields=JobID,User&start=2024-02-01"
	before := serveDirect(h, "GET", healthy, nil)
	if before.Code != http.StatusOK || before.Header().Get("X-Rows") != "2" {
		t.Fatalf("healthy month: status %d rows %s", before.Code, before.Header().Get("X-Rows"))
	}

	batch := []slurm.Record{testRecord(60, feb.Add(2*time.Hour)), testRecord(61, time.Date(2024, 1, 20, 0, 0, 0, 0, time.UTC))}
	w := serveDirect(h, "POST", "/ingest", []byte(textBatch(t, batch...)))
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("ingest into a corrupt shard: status %d, want 500: %s", w.Code, w.Body)
	}
	if store.Generation() != 0 || store.Len() != 12 {
		t.Fatalf("refused batch left generation %d and %d rows, want 0 and 12", store.Generation(), store.Len())
	}
	after := serveDirect(h, "GET", healthy, nil)
	if !bytes.Equal(after.Body.Bytes(), before.Body.Bytes()) || after.Header().Get("X-Cache") != "hit" {
		t.Fatalf("healthy month changed after a refused batch (X-Cache %s):\n%s", after.Header().Get("X-Cache"), after.Body)
	}
	if _, err := coldFigures(store, "cluster"); err == nil {
		t.Fatal("reference collect over the corrupt store succeeded")
	}
	for _, key := range figureKeys() {
		if w := serveDirect(h, "GET", "/figures/"+key+".json", nil); w.Code != http.StatusInternalServerError {
			t.Fatalf("%s over a corrupt store: status %d, want 500", key, w.Code)
		}
	}
}

// TestConcurrentFirstTimelineFigures: the two timeline figures share one
// lazily swept collector. Requested together from a fresh server they
// used to race on it, and one answered 500 "series is empty".
func TestConcurrentFirstTimelineFigures(t *testing.T) {
	store := sacct.NewStore()
	rng := rand.New(rand.NewSource(1))
	recs := make([]slurm.Record, 20000)
	for i := range recs {
		recs[i] = liveJob(rng, int64(i), time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(i)*10*time.Minute))
	}
	if _, _, err := store.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	want, err := coldFigures(store, "cluster")
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		srv, err := New(Config{Store: store})
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		var wg sync.WaitGroup
		release := make(chan struct{})
		for _, key := range core.ExtendedFigureKeys() {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-release
				w := serveDirect(h, "GET", "/figures/"+key+".json", nil)
				if w.Code != http.StatusOK {
					t.Errorf("round %d: %s: status %d: %s", round, key, w.Code, w.Body)
				} else if !bytes.Equal(w.Body.Bytes(), want[key]) {
					t.Errorf("round %d: %s: body differs from the reference", round, key)
				}
			}()
		}
		close(release)
		wg.Wait()
	}
}

// FuzzDecodeTextBatch: the /ingest text decoder never panics, and every
// non-blank line under the header is either a row or counted malformed.
func FuzzDecodeTextBatch(f *testing.F) {
	base := time.Date(2024, 1, 5, 0, 0, 0, 0, time.UTC)
	f.Add(liveBatch(f, []slurm.Record{liveJob(rand.New(rand.NewSource(1)), 7, base)}))
	f.Add([]byte("\n\r\nJobID|User\n1|a\r\n\n2|b|extra\n 3 |c"))
	f.Add([]byte("JobID|NoSuchField\n1|x\n"))
	f.Add([]byte("JobID|Submit\n1|not-a-time\n2|2024-01-01T00:00:00\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, body []byte) {
		recs, malformed, err := decodeTextBatch(body)
		if err != nil {
			if len(recs) != 0 || malformed != 0 {
				t.Fatalf("error %v alongside %d rows, %d malformed", err, len(recs), malformed)
			}
			return
		}
		lines := 0
		for _, line := range bytes.Split(body, []byte("\n")) {
			if len(bytes.TrimSpace(line)) > 0 {
				lines++
			}
		}
		if len(recs)+malformed != lines-1 {
			t.Fatalf("%d rows + %d malformed, want the %d non-blank lines under the header", len(recs), malformed, lines-1)
		}
	})
}
