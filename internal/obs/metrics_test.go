package obs

import (
	"expvar"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestRegistryConcurrentHammer drives every instrument type from many
// goroutines — run with -race; the totals must be exact.
func TestRegistryConcurrentHammer(t *testing.T) {
	reg := NewRegistry()
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Instruments are re-resolved inside the loop on purpose:
			// the registry must hand back the same instrument every
			// time, under contention.
			for i := 0; i < perWorker; i++ {
				reg.Counter("hammer_total").Inc()
				reg.Gauge("hammer_depth").Add(1)
				reg.Gauge("hammer_depth").Add(-1)
				reg.Histogram("hammer_seconds", LatencyBuckets).Observe(float64(i%100) / 100)
			}
		}(w)
	}
	wg.Wait()

	if got := reg.Counter("hammer_total").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := reg.Gauge("hammer_depth").Value(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	h := reg.Histogram("hammer_seconds", LatencyBuckets)
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	var want float64
	for i := 0; i < perWorker; i++ {
		want += float64(i%100) / 100
	}
	want *= workers
	if got := h.Sum(); math.Abs(got-want) > 1e-6 {
		t.Errorf("histogram sum = %v, want %v", got, want)
	}
	var bucketTotal int64
	for _, n := range h.Buckets() {
		bucketTotal += n
	}
	if bucketTotal != workers*perWorker {
		t.Errorf("bucket total = %d, want %d", bucketTotal, workers*perWorker)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("b_seconds", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 100} {
		h.Observe(v)
	}
	// le semantics: 1 → bucket le=1, 2 → le=2, 4 → le=4, 100 → +Inf.
	want := []int64{2, 2, 2, 1}
	got := h.Buckets()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
}

func TestWriteTextExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("llm_requests_total").Add(3)
	reg.Gauge("sched_queue_depth").Set(17)
	h := reg.Histogram("llm_request_seconds", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	reg.WriteText(&b)
	want := `# TYPE llm_requests_total counter
llm_requests_total 3
# TYPE sched_queue_depth gauge
sched_queue_depth 17
# TYPE llm_request_seconds histogram
llm_request_seconds_bucket{le="0.1"} 1
llm_request_seconds_bucket{le="1"} 2
llm_request_seconds_bucket{le="+Inf"} 3
llm_request_seconds_sum 5.55
llm_request_seconds_count 3
`
	if b.String() != want {
		t.Errorf("WriteText:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestMetricsHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("up_total").Inc()
	rr := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	if !strings.Contains(rr.Body.String(), "up_total 1") {
		t.Errorf("body = %q", rr.Body.String())
	}

	// A nil registry still serves a valid (empty) exposition.
	var nilReg *Registry
	rr = httptest.NewRecorder()
	nilReg.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != 200 {
		t.Errorf("nil registry status = %d", rr.Code)
	}
}

func TestPublishExpvar(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("pub_total").Add(7)
	name := fmt.Sprintf("obs_test_%p", reg) // unique per run; expvar is global
	reg.PublishExpvar(name)
	reg.PublishExpvar(name) // second publish must not panic
	v := expvar.Get(name)
	if v == nil {
		t.Fatal("not published")
	}
	if !strings.Contains(v.String(), `"pub_total":7`) {
		t.Errorf("expvar value = %s", v.String())
	}
}

func TestHistogramKeepsFirstLayout(t *testing.T) {
	reg := NewRegistry()
	a := reg.Histogram("once_seconds", []float64{1, 2})
	b := reg.Histogram("once_seconds", []float64{99})
	if a != b {
		t.Fatal("histogram identity not stable across lookups")
	}
	if len(a.Buckets()) != 3 {
		t.Errorf("layout changed: %d buckets", len(a.Buckets()))
	}
}

func TestLabelAppendsToLabelledName(t *testing.T) {
	one := Label("sched_phase_ns_total", "phase", "backfill")
	if want := `sched_phase_ns_total{phase="backfill"}`; one != want {
		t.Errorf("Label = %s, want %s", one, want)
	}
	if got, want := Label(one, "policy", "easy"), `sched_phase_ns_total{phase="backfill",policy="easy"}`; got != want {
		t.Errorf("Label on a labelled name = %s, want %s", got, want)
	}
}
