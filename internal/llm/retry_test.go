package llm

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// countingServer always answers with status and counts the hits.
func countingServer(t *testing.T, status int, hits *atomic.Int32) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if status == http.StatusOK {
			writeJSON(w, http.StatusOK, Response{Text: "ok", Model: "m"})
			return
		}
		writeJSON(w, status, apiError{"nope"})
	}))
	t.Cleanup(ts.Close)
	return ts
}

func quiet(c *Client) *Client {
	c.Backoff = time.Millisecond
	c.Jitter = 0
	c.Sleep = func(time.Duration) {}
	return c
}

// TestMaxRetriesSentinel pins the satellite bugfix: 0 must mean "no
// retries" (one request on the wire), negative selects the default.
func TestMaxRetriesSentinel(t *testing.T) {
	cases := []struct {
		maxRetries int
		wantHits   int32
	}{
		{maxRetries: 0, wantHits: 1},  // retries disabled
		{maxRetries: 2, wantHits: 3},  // explicit budget
		{maxRetries: -1, wantHits: 4}, // sentinel: default 3 retries
	}
	for _, c := range cases {
		var hits atomic.Int32
		ts := countingServer(t, http.StatusServiceUnavailable, &hits)
		client := quiet(NewClient(ts.URL, ""))
		client.MaxRetries = c.maxRetries
		_, err := client.Analyze(context.Background(), InsightPrompt, imageFor(t, waitChart()))
		if err == nil {
			t.Fatalf("MaxRetries=%d: want error", c.maxRetries)
		}
		if hits.Load() != c.wantHits {
			t.Errorf("MaxRetries=%d: %d requests on the wire, want %d",
				c.maxRetries, hits.Load(), c.wantHits)
		}
	}
}

func TestTerminalErrorsDoNotRetry(t *testing.T) {
	var hits atomic.Int32
	ts := countingServer(t, http.StatusUnauthorized, &hits)
	client := quiet(NewClient(ts.URL, "bad-key")) // default retry budget
	_, err := client.Analyze(context.Background(), InsightPrompt, imageFor(t, waitChart()))
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnauthorized {
		t.Fatalf("err = %v, want typed 401", err)
	}
	if apiErr.Retryable() {
		t.Error("401 must be terminal")
	}
	if hits.Load() != 1 {
		t.Errorf("terminal error burned %d requests", hits.Load())
	}
}

func TestRetryAfterOverridesBackoff(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "7")
			writeJSON(w, http.StatusTooManyRequests, apiError{"slow down"})
			return
		}
		writeJSON(w, http.StatusOK, Response{Text: "ok", Model: "m"})
	}))
	defer ts.Close()
	var slept []time.Duration
	client := NewClient(ts.URL, "")
	client.Backoff = time.Millisecond
	client.Jitter = 0
	client.Sleep = func(d time.Duration) { slept = append(slept, d) }
	if _, err := client.Analyze(context.Background(), InsightPrompt, imageFor(t, waitChart())); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 1 || slept[0] != 7*time.Second {
		t.Errorf("slept %v, want the server's 7s Retry-After", slept)
	}
}

func TestJitterSpreadsBackoff(t *testing.T) {
	var hits atomic.Int32
	ts := countingServer(t, http.StatusServiceUnavailable, &hits)
	var slept []time.Duration
	client := NewClient(ts.URL, "")
	client.MaxRetries = 8
	client.Backoff = 100 * time.Millisecond
	client.Jitter = 1.0
	client.Sleep = func(d time.Duration) { slept = append(slept, d) }
	client.Analyze(context.Background(), InsightPrompt, imageFor(t, waitChart()))
	base := 100 * time.Millisecond
	varied := false
	for i, d := range slept {
		lo := base << i
		if d < lo || d > 2*lo {
			t.Fatalf("sleep %d = %v outside [%v, %v]", i, d, lo, 2*lo)
		}
		if d != lo {
			varied = true
		}
	}
	if !varied {
		t.Error("jitter never perturbed the schedule")
	}
}

// TestBackoffAbortsOnContextCancel pins the satellite bugfix: with no
// Sleep hook installed, a cancellation mid-backoff must interrupt the
// timer — not block for the remaining (doubling) schedule.
func TestBackoffAbortsOnContextCancel(t *testing.T) {
	var hits atomic.Int32
	ts := countingServer(t, http.StatusServiceUnavailable, &hits)
	client := NewClient(ts.URL, "")
	client.Backoff = 30 * time.Second
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := client.Analyze(ctx, InsightPrompt, imageFor(t, waitChart()))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("cancellation took %v against a 30s backoff", d)
	}
}

func TestChatRetriesOn5xx(t *testing.T) {
	var hits atomic.Int32
	analyst := NewServer()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			writeJSON(w, http.StatusBadGateway, apiError{"flaky"})
			return
		}
		analyst.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()
	client := quiet(NewClient(ts.URL, ""))
	resp, err := client.Chat(context.Background(), Facts{System: "frontier", Jobs: 10}, "how many jobs ran?", "")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Reply.Text == "" || hits.Load() != 3 {
		t.Errorf("chat retry broken: hits=%d resp=%+v", hits.Load(), resp)
	}
}

func TestModelsRetriesOn5xx(t *testing.T) {
	var hits atomic.Int32
	analyst := NewServer()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			writeJSON(w, http.StatusInternalServerError, apiError{"flaky"})
			return
		}
		analyst.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()
	client := quiet(NewClient(ts.URL, ""))
	models, err := client.Models(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != len(Registry()) || hits.Load() != 3 {
		t.Errorf("models retry broken: hits=%d models=%d", hits.Load(), len(models))
	}
}

// TestModelsBoundedRead pins the satellite bugfix: the Models success
// path must cap its read like every other path instead of decoding an
// unbounded body.
func TestModelsBoundedRead(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`[{"vendor":"`))
		filler := strings.Repeat("x", 64<<10)
		for written := 0; written < modelsBodyLimit+(1<<20); written += len(filler) {
			w.Write([]byte(filler))
		}
		w.Write([]byte(`"}]`))
	}))
	defer ts.Close()
	client := quiet(NewClient(ts.URL, ""))
	_, err := client.Models(context.Background())
	if err == nil || !strings.Contains(err.Error(), "byte limit") {
		t.Fatalf("err = %v, want byte-limit rejection", err)
	}
}

func TestRateLimit429CarriesRetryAfter(t *testing.T) {
	s := NewServer("sk-test")
	s.RatePerSec = 1
	s.Burst = 1
	now := time.Unix(1000, 0)
	s.Now = func() time.Time { return now }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for i := 0; i < 2; i++ {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/analyze", strings.NewReader("{}"))
		req.Header.Set("Authorization", "Bearer sk-test")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if i == 1 {
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("second request = %d, want 429", resp.StatusCode)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 without a Retry-After hint")
			}
		}
	}
}

// TestRateLimitRetryAfterIsTheBucketWait pins the 429's Retry-After to
// the limiter's own wait under ratelimit.RetryAfter's rounding: at 0.2
// tokens a second and burst 1, a request 4 s after the first finds 0.8
// tokens, waits 1 s for the next, and is told 2 (the next whole second
// past the wait) — not 1/rate.
func TestRateLimitRetryAfterIsTheBucketWait(t *testing.T) {
	s := NewServer()
	s.RatePerSec = 0.2
	s.Burst = 1
	now := time.Unix(1000, 0)
	s.Now = func() time.Time { return now }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	post := func() *http.Response {
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := post(); resp.StatusCode == http.StatusTooManyRequests {
		t.Fatal("first request throttled")
	}
	now = now.Add(4 * time.Second)
	resp := post()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want 2", got)
	}
}

// --- Fault-injection middleware ---

func TestFaultPolicyAll500(t *testing.T) {
	faults := &FaultPolicy{Rate500: 1, Seed: 3}
	var requests atomic.Int64
	inner := faults.Middleware(NewServer().Handler())
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()
	client := quiet(NewClient(ts.URL, ""))
	client.MaxRetries = 1
	_, err := client.Analyze(context.Background(), InsightPrompt, imageFor(t, waitChart()))
	if err == nil || !strings.Contains(err.Error(), "giving up after 2 attempts") {
		t.Fatalf("err = %v", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusInternalServerError {
		t.Fatalf("want typed 500 inside %v", err)
	}
	if requests.Load() != 2 { // every request is an injected 500
		t.Errorf("injected 500s = %d", requests.Load())
	}
}

func TestFaultPolicy429SetsRetryAfter(t *testing.T) {
	faults := &FaultPolicy{Rate429: 1, RetryAfter: 3 * time.Second, Seed: 3}
	ts := httptest.NewServer(faults.Middleware(NewServer().Handler()))
	defer ts.Close()
	var slept []time.Duration
	client := NewClient(ts.URL, "")
	client.MaxRetries = 1
	client.Jitter = 0
	client.Sleep = func(d time.Duration) { slept = append(slept, d) }
	client.Analyze(context.Background(), InsightPrompt, imageFor(t, waitChart()))
	if len(slept) != 1 || slept[0] != 3*time.Second {
		t.Errorf("slept %v, want the injected 3s Retry-After", slept)
	}
}

func TestFaultPolicyDeterministicSchedule(t *testing.T) {
	sequence := func(seed int64) []int {
		faults := &FaultPolicy{Rate429: 0.3, Rate500: 0.3, Seed: seed}
		ts := httptest.NewServer(faults.Middleware(http.HandlerFunc(
			func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) })))
		defer ts.Close()
		var codes []int
		for i := 0; i < 24; i++ {
			resp, err := http.Get(ts.URL + "/v1/models")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			codes = append(codes, resp.StatusCode)
		}
		return codes
	}
	a, b := sequence(11), sequence(11)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at request %d: %d vs %d", i, a[i], b[i])
		}
	}
	mixed := map[int]bool{}
	for _, c := range a {
		mixed[c] = true
	}
	if !mixed[http.StatusOK] || (!mixed[429] && !mixed[500]) {
		t.Errorf("schedule not mixing outcomes: %v", a)
	}
}

// TestClientRecoversThroughFaultySurface runs the full loop: real
// analyst behind a 40%-faulty middleware, retry-aware client on top.
func TestClientRecoversThroughFaultySurface(t *testing.T) {
	faults := &FaultPolicy{Rate429: 0.2, Rate500: 0.2, RetryAfter: time.Millisecond, Seed: 5}
	ts := httptest.NewServer(faults.Middleware(NewServer().Handler()))
	defer ts.Close()
	client := quiet(NewClient(ts.URL, ""))
	client.MaxRetries = 10
	for i := 0; i < 8; i++ {
		resp, err := client.Analyze(context.Background(), InsightPrompt, imageFor(t, walltimeChart()))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !strings.Contains(resp.Text, "overestimating") {
			t.Fatalf("request %d: degraded response %q", i, resp.Text)
		}
	}
}
