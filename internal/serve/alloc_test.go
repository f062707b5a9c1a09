package serve

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"slurmsight/internal/obs"
	"slurmsight/internal/sacct"
	"slurmsight/internal/slurm"
)

// sink is a ResponseWriter that keeps nothing: its header map is emptied
// and reused between requests, so that what a test counts is the
// handler's own allocation.
type sink struct {
	h      http.Header
	status int
}

func (w *sink) Header() http.Header         { return w.h }
func (w *sink) Write(p []byte) (int, error) { return len(p), nil }
func (w *sink) WriteHeader(code int)        { w.status = code }

// serveOnce answers r into w, reset for it.
func serveOnce(h http.Handler, w *sink, r *http.Request) {
	clear(w.h)
	w.status = http.StatusOK
	h.ServeHTTP(w, r)
}

// hitHandler builds a server over a columnar store of n jobs, traced (the
// flight recorder on, as shipped) or not, and answers url once so the
// next request for it is a cache hit.
func hitHandler(tb testing.TB, n int, traced bool, url string) http.Handler {
	tb.Helper()
	cfg := Config{Store: columnarStore(tb, n), Metrics: obs.NewRegistry()}
	if !traced {
		cfg.FlightRing = -1
	}
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	h := s.Handler()
	w := &sink{h: http.Header{}}
	for _, want := range []string{"miss", "hit"} {
		serveOnce(h, w, httptest.NewRequest("GET", url, nil))
		if w.status != http.StatusOK || w.h.Get("X-Cache") != want {
			tb.Fatalf("%s: status %d, X-Cache %q, want 200 and %s", url, w.status, w.h.Get("X-Cache"), want)
		}
		if got := w.h.Get("X-Trace-Id"); (got != "") != traced {
			tb.Fatalf("%s: X-Trace-Id %q with tracing %v", url, got, traced)
		}
	}
	return h
}

// columnarStore dumps n jobs, an hour apart, to the columnar format and
// opens the file, as queryd serves a trace.
func columnarStore(tb testing.TB, n int) *sacct.Store {
	tb.Helper()
	st := sacct.NewStore()
	base := time.Date(2024, 1, 10, 0, 0, 0, 0, time.UTC)
	recs := make([]slurm.Record, n)
	for i := range recs {
		recs[i] = testRecord(i, base.Add(time.Duration(i)*time.Hour))
	}
	if err := st.Add(recs...); err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(tb.TempDir(), "trace.colstore")
	if err := st.DumpBinaryFile(path); err != nil {
		tb.Fatal(err)
	}
	bin, err := sacct.OpenBinary(path)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { bin.Close() })
	return bin
}

const (
	hitQuery  = "/query?fields=JobID,User,State&start=2024-01-10T00:00:00&limit=200"
	hitFolded = "/query?fields=jobid,USER,State&start=1704844800&limit=200" // hitQuery's key
	hitFigure = "/figures/fig1-volume.json"
)

// TestHitAllocs pins what a cache hit costs the serving plane, traced and
// untraced, counted over Handler().ServeHTTP. The request's parse, the
// cache lookup and the response headers allocate nothing: what is left
// is the middleware's status shim, and on a figure the mux's path
// wildcard. A traced request pays a fixed few more: its trace (one block
// for the tracer and root, the span list, the root's attributes), the
// RequestTrace the recorder keeps, the trace ID and its header, and the
// request copy and context that carry the root span.
func TestHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	want := map[string]map[bool]float64{
		hitQuery:  {false: 1, true: 10},
		hitFolded: {false: 2, true: 11},
		hitFigure: {false: 2, true: 11},
	}
	for _, url := range []string{hitQuery, hitFolded, hitFigure} {
		for _, traced := range []bool{false, true} {
			h := hitHandler(t, 50, traced, url)
			w := &sink{h: http.Header{}}
			r := httptest.NewRequest("GET", url, nil)
			got := testing.AllocsPerRun(200, func() { serveOnce(h, w, r) })
			if got != want[url][traced] {
				t.Errorf("%s traced=%v: %v allocations per request, pinned at %v", url, traced, got, want[url][traced])
			}
		}
	}
}

func benchmarkHit(b *testing.B, traced bool) {
	h := hitHandler(b, 5000, traced, hitQuery)
	w := &sink{h: http.Header{}}
	r := httptest.NewRequest("GET", hitQuery, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		serveOnce(h, w, r)
	}
}

// benchmarkMiss sends a /query that misses every time: its window starts
// a second earlier than the last one's, which changes the cache key but
// not the 200 rows it answers. 4,096 distinct keys cycle through a
// 1,024-entry cache.
func benchmarkMiss(b *testing.B, traced bool) {
	h := hitHandler(b, 5000, traced, hitQuery)
	w := &sink{h: http.Header{}}
	start := time.Date(2024, 1, 10, 0, 0, 0, 0, time.UTC).Unix()
	reqs := make([]*http.Request, 4096)
	for i := range reqs {
		reqs[i] = httptest.NewRequest("GET", "/query?fields=JobID,User,State&limit=200&start="+strconv.FormatInt(start-1-int64(i), 10), nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		serveOnce(h, w, reqs[i%len(reqs)])
		if w.h.Get("X-Cache") != "miss" {
			b.Fatalf("request %d: X-Cache %q, want miss", i, w.h.Get("X-Cache"))
		}
	}
}

func BenchmarkQueryHitTraced(b *testing.B)    { benchmarkHit(b, true) }
func BenchmarkQueryHitUntraced(b *testing.B)  { benchmarkHit(b, false) }
func BenchmarkQueryMissTraced(b *testing.B)   { benchmarkMiss(b, true) }
func BenchmarkQueryMissUntraced(b *testing.B) { benchmarkMiss(b, false) }

// TestRenderBufferCap pins that a render buffer grown past
// maxPooledRender is dropped, not pooled for the next miss.
func TestRenderBufferCap(t *testing.T) {
	big := make([]byte, 0, maxPooledRender+1)
	putRenderBuf(&big)
	if got := renderBufs.Get().(*[]byte); cap(*got) > maxPooledRender {
		t.Fatalf("the pool handed back a %d-byte buffer, past its %d-byte cap", cap(*got), maxPooledRender)
	}
}

// TestCachedBodyOutlivesTheRenderBuffer pins that the cache owns what it
// serves: a body rendered into the pooled buffer and kept, then a second
// miss that renders over that buffer, leave the first body as it was.
func TestCachedBodyOutlivesTheRenderBuffer(t *testing.T) {
	h := hitHandler(t, 50, false, "/query?fields=JobID&limit=3")
	rec := func(url string) string {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", url, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d", url, w.Code)
		}
		return w.Body.String()
	}
	short := "/query?fields=JobID,User&limit=3"
	want := rec(short)
	rec("/query?fields=State,Partition,Account&limit=40") // a longer miss, over the same buffer
	if got := rec(short); got != want {
		t.Fatalf("cached body changed under a later miss:\n%q\nwant\n%q", got, want)
	}
}
