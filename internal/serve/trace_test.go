package serve

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"slurmsight/internal/sacct"
)

// syncBuffer lets the slow-request slog handler write from request
// goroutines while the test reads the accumulated lines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// binaryStore dumps a populated store to the columnar format and
// reopens it lazily, so the first scan pays real shard decodes and the
// trace shows them.
func binaryStore(t *testing.T, n int) *sacct.Store {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.colstore")
	if err := testStore(t, n).DumpBinaryFile(path); err != nil {
		t.Fatal(err)
	}
	st, err := sacct.OpenBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

type spanNode struct {
	Name     string            `json:"name"`
	Attrs    map[string]string `json:"attrs"`
	Children []spanNode        `json:"children"`
}

type recordedTrace struct {
	ID         string     `json:"id"`
	Route      string     `json:"route"`
	Status     int        `json:"status"`
	DurationMS float64    `json:"duration_ms"`
	Spans      []spanNode `json:"spans"`
}

func fetchTraces(t *testing.T, base string) []recordedTrace {
	t.Helper()
	_, body := get(t, base+"/debug/requests?format=json")
	var out struct {
		Total  uint64          `json:"total"`
		Recent []recordedTrace `json:"recent"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("/debug/requests JSON: %v\n%s", err, body)
	}
	return out.Recent
}

func findSpan(nodes []spanNode, name string) *spanNode {
	for i := range nodes {
		if nodes[i].Name == name {
			return &nodes[i]
		}
		if found := findSpan(nodes[i].Children, name); found != nil {
			return found
		}
	}
	return nil
}

// TestFigureRequestTrace pins the tentpole contract end to end: a
// figure cache miss over a lazily-loaded binary store yields a flight
// recorder trace whose child spans name the store scan, the colstore
// shard decodes, the analyze collect, and the figure render — each with
// row/shard attributes — and the slow log line carries the same trace
// ID the response advertised in X-Trace-Id.
func TestFigureRequestTrace(t *testing.T) {
	logBuf := &syncBuffer{}
	_, ts := testServer(t, Config{
		Store:         binaryStore(t, 20),
		SlowThreshold: time.Nanosecond, // everything is slow: every request logs
		Log:           slog.New(slog.NewJSONHandler(logBuf, nil)),
	})

	resp, body := get(t, ts.URL+"/figures/fig1-volume.json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	traceID := resp.Header.Get("X-Trace-Id")
	if len(traceID) != 16 {
		t.Fatalf("X-Trace-Id = %q, want a 16-hex trace ID", traceID)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("X-Cache = %q, want miss", got)
	}

	var trace *recordedTrace
	for _, rt := range fetchTraces(t, ts.URL) {
		if rt.ID == traceID {
			trace = &rt
			break
		}
	}
	if trace == nil {
		t.Fatalf("trace %s not in the flight recorder", traceID)
	}
	if trace.Route != "/figures" || trace.Status != 200 {
		t.Fatalf("trace %+v", trace)
	}
	if len(trace.Spans) != 1 || trace.Spans[0].Name != "GET /figures" {
		t.Fatalf("root spans: %+v", trace.Spans)
	}
	root := trace.Spans[0]
	if root.Attrs["cache"] != "miss" || root.Attrs["status"] != "200" {
		t.Fatalf("root attrs: %v", root.Attrs)
	}

	scan := findSpan(root.Children, "store-scan")
	if scan == nil {
		t.Fatalf("no store-scan span under root: %+v", root.Children)
	}
	if rows, _ := strconv.Atoi(scan.Attrs["rows"]); rows != 20 {
		t.Fatalf("store-scan rows = %q, want 20", scan.Attrs["rows"])
	}
	if shards, _ := strconv.Atoi(scan.Attrs["shards"]); shards < 1 {
		t.Fatalf("store-scan shards = %q", scan.Attrs["shards"])
	}
	open := findSpan(scan.Children, "colstore-shard-open")
	if open == nil {
		t.Fatalf("no colstore-shard-open span under store-scan: %+v", scan.Children)
	}
	if open.Attrs["shard"] == "" || open.Attrs["rows"] == "" {
		t.Fatalf("shard-open attrs: %v", open.Attrs)
	}
	if findSpan(root.Children, "analyze-collect") == nil {
		t.Fatal("no analyze-collect span")
	}
	render := findSpan(root.Children, "figure-render")
	if render == nil || render.Attrs["figure"] != "fig1-volume" {
		t.Fatalf("figure-render span: %+v", render)
	}

	// Log↔trace correlation: a slow-request line carries the trace ID.
	var logged bool
	for _, line := range bytes.Split([]byte(logBuf.String()), []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var entry map[string]any
		if err := json.Unmarshal(line, &entry); err != nil {
			t.Fatalf("slow log line is not JSON: %v: %s", err, line)
		}
		if entry["msg"] == "slow request" && entry["trace_id"] == traceID {
			if entry["route"] != "/figures" || entry["cache"] != "miss" {
				t.Fatalf("slow log entry: %v", entry)
			}
			logged = true
		}
	}
	if !logged {
		t.Fatalf("no slow-request log line with trace_id %s:\n%s", traceID, logBuf.String())
	}

	// A cache hit re-traces cheaply: no scan spans, cache attr says hit.
	resp, _ = get(t, ts.URL+"/figures/fig1-volume.json")
	hitID := resp.Header.Get("X-Trace-Id")
	if hitID == traceID || hitID == "" {
		t.Fatalf("hit trace ID %q", hitID)
	}
	for _, rt := range fetchTraces(t, ts.URL) {
		if rt.ID != hitID {
			continue
		}
		hitRoot := rt.Spans[0]
		if hitRoot.Attrs["cache"] != "hit" {
			t.Fatalf("hit root attrs: %v", hitRoot.Attrs)
		}
		if findSpan(hitRoot.Children, "store-scan") != nil {
			t.Fatal("cache hit ran a store scan")
		}
		return
	}
	t.Fatalf("hit trace %s not recorded", hitID)
}

// TestQueryTraceRows pins tracing on the /query path: the store scan
// span reports the projected row count and the root carries the rows
// served.
func TestQueryTraceRows(t *testing.T) {
	_, ts := testServer(t, Config{Store: binaryStore(t, 10)})
	resp, _ := get(t, ts.URL+"/query?fields=JobID,User&limit=4")
	traceID := resp.Header.Get("X-Trace-Id")
	for _, rt := range fetchTraces(t, ts.URL) {
		if rt.ID != traceID {
			continue
		}
		root := rt.Spans[0]
		if root.Attrs["rows"] != "4" || root.Attrs["cache"] != "miss" {
			t.Fatalf("root attrs: %v", root.Attrs)
		}
		if scan := findSpan(root.Children, "store-scan"); scan == nil {
			t.Fatalf("no store-scan span: %+v", root.Children)
		}
		return
	}
	t.Fatalf("trace %s not recorded", traceID)
}

// TestTracingDisabled pins the baseline path: with the recorder and the
// slow log both off, requests carry no trace ID and nothing is
// recorded, yet /debug/requests still answers.
func TestTracingDisabled(t *testing.T) {
	s, ts := testServer(t, Config{FlightRing: -1, SlowThreshold: -1})
	resp, _ := get(t, ts.URL+"/query?fields=JobID")
	if resp.StatusCode != http.StatusOK {
		t.Fatal(resp.StatusCode)
	}
	if id := resp.Header.Get("X-Trace-Id"); id != "" {
		t.Fatalf("untraced request has X-Trace-Id %q", id)
	}
	if s.rec != nil {
		t.Fatal("recorder allocated despite FlightRing < 0")
	}
	resp, body := get(t, ts.URL+"/debug/requests?format=json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/requests with recording off: %d %s", resp.StatusCode, body)
	}
}

// TestThrottleRetryAfterConcurrent hammers a tiny token bucket from
// many goroutines: exactly burst requests are admitted, every 429
// carries a positive integer Retry-After derived from the refill rate,
// and throttled traces are marked.
func TestThrottleRetryAfterConcurrent(t *testing.T) {
	_, ts := testServer(t, Config{RatePerSec: 0.5, Burst: 3})
	const n = 12
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		ok, thr int
		retries []int
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/query?fields=JobID")
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			mu.Lock()
			defer mu.Unlock()
			switch resp.StatusCode {
			case http.StatusOK:
				ok++
			case http.StatusTooManyRequests:
				thr++
				ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
				if err != nil || ra < 1 {
					t.Errorf("Retry-After %q, want a positive integer", resp.Header.Get("Retry-After"))
				}
				retries = append(retries, ra)
			default:
				t.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	if ok != 3 || thr != n-3 {
		t.Fatalf("admitted %d throttled %d, want 3/%d", ok, thr, n-3)
	}
	// At 0.5 tokens/s an empty bucket refills a token in 2s; ceil plus
	// the spent fraction keeps every hint in [1, 3].
	for _, ra := range retries {
		if ra > 3 {
			t.Fatalf("Retry-After %d, want <= 3 at 0.5 rps", ra)
		}
	}
	// Throttled requests are marked in their traces.
	var marked int
	for _, rt := range fetchTraces(t, ts.URL) {
		if rt.Status != http.StatusTooManyRequests {
			continue
		}
		if rt.Spans[0].Attrs["throttled"] == "true" && rt.Spans[0].Attrs["retry_after_s"] != "" {
			marked++
		}
	}
	if marked != n-3 {
		t.Fatalf("%d throttled traces marked, want %d", marked, n-3)
	}
}

// TestCacheTransitionsConcurrent pins X-Cache under concurrent load:
// one miss per cold key however many clients race it, the rest split
// between coalesced (joined the in-flight computation) and hit (arrived
// after it landed), and a follow-up request is a plain hit.
func TestCacheTransitionsConcurrent(t *testing.T) {
	_, ts := testServer(t, Config{})
	const n = 24
	u := ts.URL + "/query?fields=JobID,User,State&limit=5"
	var wg sync.WaitGroup
	outcomes := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(u)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d", resp.StatusCode)
				return
			}
			outcomes[i] = resp.Header.Get("X-Cache")
		}(i)
	}
	wg.Wait()
	var miss, hit, coal int
	for _, o := range outcomes {
		switch o {
		case "miss":
			miss++
		case "hit":
			hit++
		case "coalesced":
			coal++
		default:
			t.Fatalf("X-Cache %q", o)
		}
	}
	if miss != 1 || miss+hit+coal != n {
		t.Fatalf("miss=%d hit=%d coalesced=%d, want exactly one miss of %d", miss, hit, coal, n)
	}
	resp, _ := get(t, u)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("follow-up X-Cache = %q, want hit", got)
	}
}
