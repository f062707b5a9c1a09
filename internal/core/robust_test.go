package core

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"slurmsight/internal/dataflow"
	"slurmsight/internal/llm"
)

// brokenAnalyzeServer serves the real endpoint but hard-fails every
// /v1/analyze call — the "LLM API is down" scenario.
func brokenAnalyzeServer(t *testing.T) *httptest.Server {
	t.Helper()
	real := llm.NewServer("sk-test").Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/analyze" {
			http.Error(w, `{"error":"model offline"}`, http.StatusServiceUnavailable)
			return
		}
		real.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts
}

func fastClient(url string) *llm.Client {
	c := llm.NewClient(url, "sk-test")
	c.MaxRetries = 0
	c.Backoff = time.Millisecond
	c.Sleep = func(time.Duration) {}
	return c
}

// TestContinueOnErrorDegradesGracefully is the acceptance scenario: the
// LLM backend is down, yet with ContinueOnError the static analysis
// pipeline completes every figure, the run reports each AI failure, and
// the outcome DOT shows what happened.
func TestContinueOnErrorDegradesGracefully(t *testing.T) {
	ts := brokenAnalyzeServer(t)
	cfg := baseConfig(t)
	cfg.EnableAI = true
	cfg.LLM = fastClient(ts.URL)
	cfg.ContinueOnError = true

	art, err := Run(context.Background(), cfg)
	var runErr *dataflow.RunError
	if !errors.As(err, &runErr) {
		t.Fatalf("err = %v, want *dataflow.RunError", err)
	}
	if art == nil {
		t.Fatal("partial failure must still return artifacts")
	}
	// Every LLM stage fails: one insight per non-volume figure plus the
	// wait comparison.
	wantFailures := len(FigureKeys()) - 1 + 1
	if len(runErr.Errs) != wantFailures {
		t.Errorf("reported %d failures, want %d: %v", len(runErr.Errs), wantFailures, runErr)
	}
	for _, e := range runErr.Errs {
		if !strings.Contains(e.Error(), "llm") {
			t.Errorf("unexpected failing stage: %v", e)
		}
	}

	// The static pipeline survived end to end.
	for _, key := range FigureKeys() {
		fig := art.Figures[key]
		if _, err := os.Stat(fig.HTMLPath); err != nil {
			t.Errorf("figure %s missing despite ContinueOnError: %v", key, err)
		}
	}
	if _, err := os.Stat(art.DashboardPath); err != nil {
		t.Errorf("dashboard missing: %v", err)
	}
	if art.Records == 0 {
		t.Error("no records curated")
	}

	// The trace accounts for everything: failures for the LLM stages, a
	// skip for the report (downstream of the insights).
	okN, failed, skipped, _ := art.Trace.Counts()
	if failed != wantFailures {
		t.Errorf("trace failed = %d, want %d", failed, wantFailures)
	}
	if skipped == 0 {
		t.Error("report stage should be skipped downstream of failed insights")
	}
	if okN+failed+skipped != len(art.Trace.Tasks) {
		t.Errorf("outcome counts inconsistent: %d+%d+%d != %d",
			okN, failed, skipped, len(art.Trace.Tasks))
	}

	// The outcome graph narrates the failures.
	dot, err := os.ReadFile(art.StatusDOTPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"failed", "skipped", "color=darkgreen"} {
		if !strings.Contains(string(dot), want) {
			t.Errorf("workflow-status.dot missing %q", want)
		}
	}
}

// TestFailFastStillAborts pins the default: without ContinueOnError a
// dead LLM backend fails the whole run.
func TestFailFastStillAborts(t *testing.T) {
	ts := brokenAnalyzeServer(t)
	cfg := baseConfig(t)
	cfg.EnableAI = true
	cfg.LLM = fastClient(ts.URL)

	art, err := Run(context.Background(), cfg)
	if err == nil {
		t.Fatal("want error")
	}
	var runErr *dataflow.RunError
	if errors.As(err, &runErr) {
		t.Fatalf("fail-fast run should not aggregate: %v", err)
	}
	if art != nil {
		t.Error("fail-fast run should not return artifacts")
	}
}

// TestTaskRetriesRecoverFlakySurface drives the full workflow against a
// probabilistically faulty endpoint and requires a clean finish: client
// retries absorb 429/500 bursts, task attempts absorb anything that
// leaks through.
func TestTaskRetriesRecoverFlakySurface(t *testing.T) {
	faults := &llm.FaultPolicy{
		Rate429:    0.15,
		Rate500:    0.15,
		RetryAfter: time.Millisecond,
		Seed:       9,
	}
	// Every request the fault schedule answers itself never reaches the
	// inner counter.
	var requests, served atomic.Int64
	count := func(n *atomic.Int64, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			n.Add(1)
			h.ServeHTTP(w, r)
		})
	}
	ts := httptest.NewServer(count(&requests, faults.Middleware(count(&served, llm.NewServer("sk-test").Handler()))))
	t.Cleanup(ts.Close)

	cfg := baseConfig(t)
	cfg.EnableAI = true
	client := fastClient(ts.URL)
	client.MaxRetries = 6
	cfg.LLM = client
	cfg.TaskAttempts = 3
	cfg.TaskBackoff = time.Millisecond
	cfg.ContinueOnError = true

	art, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("retries failed to absorb the fault schedule: %v", err)
	}
	if requests.Load() == served.Load() {
		t.Fatal("fault schedule was inert — test proves nothing")
	}
	for _, key := range FigureKeys() {
		if key == FigVolume {
			continue
		}
		if _, err := os.Stat(art.Figures[key].InsightPath); err != nil {
			t.Errorf("insight %s missing after recovery: %v", key, err)
		}
	}
}
