package serve

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"slurmsight/internal/core"
	"slurmsight/internal/obs"
	"slurmsight/internal/sacct"
	"slurmsight/internal/slurm"
)

// cancelAfter is a context that is live for its first n Err calls and
// cancelled from then on. A collect asks once before its first row and
// then every few thousand rows, so it stops a collect part way through.
type cancelAfter struct {
	context.Context
	n     int64
	calls atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) > c.n {
		return context.Canceled
	}
	return nil
}

// liveStore is a store of n jobs drawn by liveJob, one every ten minutes
// from 2024-01-01, appended as one batch.
func liveStore(t *testing.T, seed int64, n int) *sacct.Store {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	recs := make([]slurm.Record, n)
	base := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := range recs {
		recs[i] = liveJob(rng, int64(i+1), base.Add(time.Duration(i)*10*time.Minute))
	}
	store := sacct.NewStore()
	if _, _, err := store.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	return store
}

// lateBatch draws n jobs submitted in January 2024, behind the tail of
// a liveStore, so landing them leaves the resident bundle behind.
func lateBatch(rng *rand.Rand, id int64, n int) []slurm.Record {
	base := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	out := make([]slurm.Record, n)
	for i := range out {
		out[i] = liveJob(rng, id+int64(i), base.Add(time.Duration(rng.Intn(31*24*3600))*time.Second))
	}
	return out
}

// TestRecollectCancelledMidScan: a re-collect whose request is cancelled
// part way through the scan has emptied the resident bundle and refilled
// only some of it. The bundle is dropped, and the figures that follow
// collect afresh and match a cold collect of the same store.
func TestRecollectCancelledMidScan(t *testing.T) {
	store := liveStore(t, 1, 10_000)
	reg := obs.NewRegistry()
	srv, err := New(Config{Store: store, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	if w := serveDirect(h, "GET", "/figures/"+core.FigBackfill+".json", nil); w.Code != http.StatusOK {
		t.Fatalf("first figure: status %d: %s", w.Code, w.Body)
	}
	gen, err := srv.appendBatch(lateBatch(rand.New(rand.NewSource(2)), 50_000, 40))
	if err != nil {
		t.Fatal(err)
	}

	ctx := &cancelAfter{Context: context.Background(), n: 2}
	if _, _, err := srv.chartAt(ctx, core.FigBackfill); !errors.Is(err, context.Canceled) {
		t.Fatalf("re-collect under a cancelled request: %v, want context.Canceled", err)
	}
	if ctx.calls.Load() != 3 {
		t.Fatalf("the collect asked its context %d times, want 3: cancelled after two looks, well into the scan", ctx.calls.Load())
	}
	srv.figMu.Lock()
	dropped := srv.figBundle == nil
	srv.figMu.Unlock()
	if !dropped {
		t.Fatal("a half-refilled bundle is still resident")
	}
	checkFigures(t, h, store, gen, "after a cancelled re-collect")
	if n := reg.Counter(obs.Label("serve_figure_bundle_total", "path", "recollect")).Value(); n != 2 {
		t.Errorf("%d figures counted as re-collects, want 2: the first figure and the one after the cancel", n)
	}
}

// TestFiguresDuringLateBatchesMatchColdCollect fetches all seven figures
// from as many goroutines, over and over, while late batches land and
// force the resident bundle to be re-collected in place. A chart is
// encoded outside the bundle's lock, so under -race this is the check
// that no chart holds the bundle's storage; and every body must be the
// cold collect of the generation it is labelled with.
func TestFiguresDuringLateBatchesMatchColdCollect(t *testing.T) {
	const batches = 12
	live, ref := liveStore(t, 3, 3000), liveStore(t, 3, 3000)
	rng := rand.New(rand.NewSource(4))
	late := make([][]slurm.Record, batches)
	want := map[uint64]map[string][]byte{}
	for i := 0; ; i++ {
		figs, err := coldFigures(ref, "cluster")
		if err != nil {
			t.Fatal(err)
		}
		want[ref.Generation()] = figs
		if i == batches {
			break
		}
		late[i] = lateBatch(rng, int64(10_000+100*i), 1+rng.Intn(30))
		if _, _, err := ref.AppendBatch(late[i]); err != nil {
			t.Fatal(err)
		}
	}

	srv, err := New(Config{Store: live})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	var done atomic.Bool
	var wg sync.WaitGroup
	for _, key := range figureKeys() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for last := false; !last; {
				last = done.Load()
				w := serveDirect(h, "GET", "/figures/"+key+".json", nil)
				gen, err := strconv.ParseUint(w.Header().Get("X-Store-Generation"), 10, 64)
				if w.Code != http.StatusOK || err != nil {
					t.Errorf("%s: status %d, generation %q: %s", key, w.Code, w.Header().Get("X-Store-Generation"), w.Body)
					return
				}
				if !bytes.Equal(w.Body.Bytes(), want[gen][key]) {
					t.Errorf("%s at generation %d: body differs from a cold collect of that generation", key, gen)
					return
				}
			}
		}()
	}
	for _, batch := range late {
		if w := serveDirect(h, "POST", "/ingest", liveBatch(t, batch)); w.Code != http.StatusOK {
			t.Errorf("ingest: status %d: %s", w.Code, w.Body)
		}
		runtime.Gosched()
	}
	done.Store(true)
	wg.Wait()
}

// TestZeroNodeJobKeepsFigure3: a started job recorded with no nodes is
// drawn at one node. Unfloored, its point is a "non-positive y on a log
// axis", and Figure 3 answers 500 for as long as the row is stored.
func TestZeroNodeJobKeepsFigure3(t *testing.T) {
	_, ts := testServer(t, Config{})
	r := testRecord(99, time.Date(2031, 1, 1, 0, 0, 0, 0, time.UTC))
	r.NNodes, r.NCPUs = 0, 0
	resp, err := http.Post(ts.URL+"/ingest", "text/plain", bytes.NewReader([]byte(textBatch(t, r))))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}
	for i := 0; i < 2; i++ {
		if resp, body := get(t, ts.URL+"/figures/"+core.FigNodesElapsed+".json"); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i+1, resp.StatusCode, body)
		}
	}
}

// TestCacheWaiterOutlivesCancelledLeader: a waiter on a computation whose
// own request was cancelled runs it again rather than sharing the
// cancellation.
func TestCacheWaiterOutlivesCancelledLeader(t *testing.T) {
	c := newRespCache(8, obs.NewRegistry())
	release := make(chan struct{})
	leader := make(chan error, 1)
	go func() {
		_, _, err := c.do(0, cacheKey{figure: "k"}, func() (*entry, error) {
			<-release
			return nil, context.Canceled
		})
		leader <- err
	}()
	for {
		c.mu.Lock()
		_, inflight := c.inflight[cacheKey{figure: "k"}]
		c.mu.Unlock()
		if inflight {
			break
		}
		runtime.Gosched()
	}
	waiter := make(chan *entry, 1)
	go func() {
		ent, _, err := c.do(0, cacheKey{figure: "k"}, func() (*entry, error) { return &entry{body: []byte("v")}, nil })
		if err != nil {
			t.Errorf("waiter: %v", err)
		}
		waiter <- ent
	}()
	for c.coalesced.Value() == 0 {
		runtime.Gosched()
	}
	close(release)
	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Errorf("leader: %v, want its own cancellation", err)
	}
	if ent := <-waiter; ent == nil || string(ent.body) != "v" {
		t.Errorf("waiter got %v, want its own computation", ent)
	}
}

// TestIngestAllocsScaleWithBatch pins what a text batch costs to take in:
// the body read into one buffer of its stated length, a read buffer no
// larger than the body, and its rows reserved once, so a small batch
// costs about its own size and a large one no regrowth.
func TestIngestAllocsScaleWithBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector pads allocations")
	}
	rng := rand.New(rand.NewSource(5))
	recs := lateBatch(rng, 1, 200)
	for _, n := range []int{1, 20, 200} {
		body := liveBatch(t, recs[:n])
		var reqs []*http.Request
		for i := 0; i < 3; i++ {
			reqs = append(reqs, httptest.NewRequest("POST", "/ingest", bytes.NewReader(body)))
		}
		read := allocBytes(func(i int) {
			if _, err := ingestBody(reqs[i]); err != nil {
				t.Fatal(err)
			}
		})
		// The body, the room ReadFrom keeps free, and the allocator's
		// rounding of a large buffer up to whole pages.
		if limit := uint64(len(body) + bytes.MinRead + 4096); read > limit {
			t.Errorf("%d rows: reading a %d-byte body allocates %d bytes, want <= %d", n, len(body), read, limit)
		}
		// A stated length the body never reaches reserves no more than
		// maxIngestPresize.
		for i := range reqs {
			reqs[i] = httptest.NewRequest("POST", "/ingest", bytes.NewReader(body))
			reqs[i].ContentLength = maxIngestBody
		}
		lied := allocBytes(func(i int) {
			if _, err := ingestBody(reqs[i]); err != nil {
				t.Fatal(err)
			}
		})
		if limit := uint64(maxIngestPresize + 16<<10); lied > limit {
			t.Errorf("%d rows under a Content-Length of %d: reading allocates %d bytes, want <= %d", n, maxIngestBody, lied, limit)
		}
		decode := allocBytes(func(int) {
			got, malformed, err := decodeTextBatch(body)
			if err != nil || malformed != 0 || len(got) != n {
				t.Fatalf("decode: %d rows, %d malformed, %v", len(got), malformed, err)
			}
		})
		// The records, a read buffer and the kept strings each about the
		// body's size, and the reader's fixed parts.
		if limit := uint64(n)*uint64(unsafe.Sizeof(slurm.Record{})) + 2*uint64(len(body)) + 8<<10; decode > limit {
			t.Errorf("%d rows: decoding a %d-byte body allocates %d bytes, want <= %d", n, len(body), decode, limit)
		}
	}
}

// allocBytes returns the bytes f allocates, the least of three runs;
// f is told which run it is.
func allocBytes(f func(run int)) uint64 {
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&before)
		f(i)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
