package obs

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func testTrace(route string, n int, dur time.Duration) *RequestTrace {
	return &RequestTrace{
		ID:       fmt.Sprintf("%016x", n),
		Route:    route,
		Method:   "GET",
		Path:     route,
		Status:   200,
		Client:   "addr:test",
		Start:    time.Unix(1700000000, 0).Add(time.Duration(n) * time.Second),
		Duration: dur,
	}
}

func TestNewTraceID(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("trace IDs %q %q, want 16 hex chars", a, b)
	}
	if a == b {
		t.Fatalf("consecutive trace IDs collided: %q", a)
	}
}

func TestRecorderNilNoop(t *testing.T) {
	var r *Recorder
	r.Record(testTrace("/query", 1, time.Millisecond)) // must not panic
	if r.Snapshot().Total != 0 {
		t.Fatal("nil recorder recorded something")
	}
	snap := r.Snapshot()
	if len(snap.Recent) != 0 || len(snap.Slowest) != 0 {
		t.Fatalf("nil snapshot not empty: %+v", snap)
	}
	// The handler still serves an empty snapshot, so probes stay uniform
	// across deployments with recording disabled.
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/requests?format=json", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"total": 0`) {
		t.Fatalf("nil handler: %d %s", rec.Code, rec.Body.String())
	}
}

func TestRecorderRingWraparound(t *testing.T) {
	r := NewRecorder(4, 2)
	for i := 0; i < 10; i++ {
		r.Record(testTrace("/query", i, time.Duration(i)*time.Millisecond))
	}
	if r.Snapshot().Total != 10 {
		t.Fatalf("total %d, want 10", r.Snapshot().Total)
	}
	snap := r.Snapshot()
	if len(snap.Recent) != 4 {
		t.Fatalf("ring holds %d, want 4", len(snap.Recent))
	}
	// Newest first: traces 9, 8, 7, 6 survive.
	for i, want := range []int{9, 8, 7, 6} {
		if got := snap.Recent[i].ID; got != fmt.Sprintf("%016x", want) {
			t.Fatalf("recent[%d] = %s, want trace %d", i, got, want)
		}
	}
}

func TestRecorderTailSampler(t *testing.T) {
	r := NewRecorder(2, 3)
	// Slow requests early, fast later: the ring forgets them, the tail
	// sampler must not.
	durs := []time.Duration{900, 100, 700, 50, 800, 10, 20, 30}
	for i, d := range durs {
		r.Record(testTrace("/figures", i, d*time.Millisecond))
	}
	snap := r.Snapshot()
	tail := snap.Slowest["/figures"]
	if len(tail) != 3 {
		t.Fatalf("tail holds %d, want 3", len(tail))
	}
	for i, want := range []time.Duration{900, 800, 700} {
		if got := tail[i].Duration; got != want*time.Millisecond {
			t.Fatalf("tail[%d] = %s, want %s (descending by duration)", i, got, want*time.Millisecond)
		}
	}
	// Routes are independent.
	r.Record(testTrace("/query", 100, 5*time.Millisecond))
	if got := len(r.Snapshot().Slowest["/query"]); got != 1 {
		t.Fatalf("second route tail = %d, want 1", got)
	}
}

func TestRecorderRouteBound(t *testing.T) {
	r := NewRecorder(4, 2)
	for i := 0; i < maxRecorderRoutes+10; i++ {
		r.Record(testTrace(fmt.Sprintf("/r%d", i), i, time.Millisecond))
	}
	if got := len(r.Snapshot().Slowest); got != maxRecorderRoutes {
		t.Fatalf("tail sampler tracks %d routes, want cap %d", got, maxRecorderRoutes)
	}
	// Ring still records past the route cap.
	if r.Snapshot().Total != uint64(maxRecorderRoutes+10) {
		t.Fatalf("total %d", r.Snapshot().Total)
	}
}

// TestRecorderHammer drives the recorder from many goroutines at once;
// run under -race it pins the locking discipline, and the invariants
// (bounded retention, descending tails) must hold at every snapshot.
func TestRecorderHammer(t *testing.T) {
	r := NewRecorder(32, 4)
	routes := []string{"/query", "/figures", "/ingest"}
	const workers = 8
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				d := time.Duration((w*31+i*17)%1000) * time.Microsecond
				r.Record(testTrace(routes[(w+i)%len(routes)], w*perWorker+i, d))
				if i%100 == 0 {
					snap := r.Snapshot()
					if len(snap.Recent) > 32 {
						t.Errorf("ring overflow: %d", len(snap.Recent))
						return
					}
					for route, tail := range snap.Slowest {
						if len(tail) > 4 {
							t.Errorf("%s tail overflow: %d", route, len(tail))
							return
						}
						for j := 1; j < len(tail); j++ {
							if tail[j].Duration > tail[j-1].Duration {
								t.Errorf("%s tail not descending at %d", route, j)
								return
							}
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if r.Snapshot().Total != workers*perWorker {
		t.Fatalf("total %d, want %d", r.Snapshot().Total, workers*perWorker)
	}
}

func TestRecorderHandlerJSON(t *testing.T) {
	r := NewRecorder(8, 2)
	tr := NewTracer()
	root := tr.Start("GET /figures")
	child := root.Child("store-scan")
	child.SetAttrInt("rows", 42)
	child.End()
	root.End()
	rt := testTrace("/figures", 1, 30*time.Millisecond)
	rt.Spans = tr.Snapshot()
	r.Record(rt)
	r.Record(testTrace("/query", 2, time.Millisecond))

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/requests?format=json", nil))
	var out struct {
		Total  uint64 `json:"total"`
		Recent []struct {
			ID    string `json:"id"`
			Spans []struct {
				Name     string            `json:"name"`
				Attrs    map[string]string `json:"attrs"`
				Children []struct {
					Name  string            `json:"name"`
					Attrs map[string]string `json:"attrs"`
				} `json:"children"`
			} `json:"spans"`
		} `json:"recent"`
		Slowest map[string][]json.RawMessage `json:"slowest"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("handler JSON: %v\n%s", err, rec.Body.String())
	}
	if out.Total != 2 || len(out.Recent) != 2 {
		t.Fatalf("total %d recent %d, want 2/2", out.Total, len(out.Recent))
	}
	// Newest first: the /query trace leads, the traced /figures follows.
	fig := out.Recent[1]
	if len(fig.Spans) != 1 || fig.Spans[0].Name != "GET /figures" {
		t.Fatalf("span tree roots: %+v", fig.Spans)
	}
	kids := fig.Spans[0].Children
	if len(kids) != 1 || kids[0].Name != "store-scan" || kids[0].Attrs["rows"] != "42" {
		t.Fatalf("child spans: %+v", kids)
	}
	if len(out.Slowest) != 2 {
		t.Fatalf("slowest routes: %d", len(out.Slowest))
	}

	// ?route= filters both views.
	rec = httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/requests?format=json&route=/figures", nil))
	if body := rec.Body.String(); strings.Contains(body, `"/query"`) {
		t.Fatalf("route filter leaked /query traces:\n%s", body)
	}

	// HTML view renders without scripts.
	rec = httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/requests", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("content type %q", ct)
	}
	if body := rec.Body.String(); !strings.Contains(body, "store-scan") || strings.Contains(body, "<script") {
		t.Fatalf("html view:\n%s", body)
	}
}
