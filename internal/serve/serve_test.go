package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"slurmsight/internal/obs"
	"slurmsight/internal/sacct"
	"slurmsight/internal/slurm"
)

func testRecord(i int, submit time.Time) slurm.Record {
	return slurm.Record{
		ID:        slurm.NewJobID(int64(1000 + i)),
		User:      fmt.Sprintf("u%02d", i%5),
		Account:   "acct",
		Partition: "batch",
		Submit:    submit,
		Start:     submit.Add(time.Minute),
		End:       submit.Add(11 * time.Minute),
		Elapsed:   10 * time.Minute,
		State:     slurm.StateCompleted,
		NNodes:    2,
		NCPUs:     16,
	}
}

func testStore(t *testing.T, n int) *sacct.Store {
	t.Helper()
	st := sacct.NewStore()
	base := time.Date(2024, 1, 10, 0, 0, 0, 0, time.UTC)
	recs := make([]slurm.Record, n)
	for i := range recs {
		recs[i] = testRecord(i, base.Add(time.Duration(i)*time.Hour))
	}
	if err := st.Add(recs...); err != nil {
		t.Fatal(err)
	}
	st.Finalize()
	return st
}

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Store == nil {
		cfg.Store = testStore(t, 10)
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// cacheEntries reads the response-cache population /healthz reports.
func cacheEntries(t *testing.T, base string) int {
	t.Helper()
	_, body := get(t, base+"/healthz")
	var h struct {
		CacheEntries int `json:"cache_entries"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	return h.CacheEntries
}

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

// textBatch renders records as a pipe-text ingest body.
func textBatch(t *testing.T, recs ...slurm.Record) string {
	t.Helper()
	return string(encodeBatch(t, []string{"JobID", "User", "Account", "Partition", "Submit", "Start", "End", "Elapsed", "State", "NNodes", "NCPUs"}, recs))
}

func encodeBatch(t testing.TB, fields []string, recs []slurm.Record) []byte {
	t.Helper()
	var sb strings.Builder
	sb.WriteString(slurm.Header(fields))
	sb.WriteByte('\n')
	for i := range recs {
		line, err := slurm.EncodeRecord(&recs[i], fields)
		if err != nil {
			t.Fatal(err)
		}
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
	return []byte(sb.String())
}

// TestQueryIngestGeneration pins the tentpole contract: a generation
// bump invalidates cached query responses exactly once, and a query
// issued after an acknowledged ingest observes the appended rows.
func TestQueryIngestGeneration(t *testing.T) {
	m := obs.NewRegistry()
	s, ts := testServer(t, Config{Metrics: m})
	misses := m.Counter("serve_cache_misses_total")
	hits := m.Counter("serve_cache_hits_total")

	u := ts.URL + "/query?fields=JobID,User"
	resp, body := get(t, u)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first query X-Cache = %q, want miss", got)
	}
	if got := resp.Header.Get("X-Rows"); got != "10" {
		t.Fatalf("X-Rows = %q, want 10", got)
	}
	gen0 := resp.Header.Get("X-Store-Generation")

	resp, _ = get(t, u)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("repeat query X-Cache = %q, want hit", got)
	}
	if misses.Value() != 1 || hits.Value() != 1 {
		t.Fatalf("misses=%d hits=%d, want 1/1", misses.Value(), hits.Value())
	}

	// Append 5 rows in a later month.
	base := time.Date(2024, 2, 1, 0, 0, 0, 0, time.UTC)
	var recs []slurm.Record
	for i := 0; i < 5; i++ {
		recs = append(recs, testRecord(100+i, base.Add(time.Duration(i)*time.Hour)))
	}
	ingResp, err := http.Post(ts.URL+"/ingest", "text/plain", strings.NewReader(textBatch(t, recs...)))
	if err != nil {
		t.Fatal(err)
	}
	var ack ingestResponse
	if err := json.NewDecoder(ingResp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	ingResp.Body.Close()
	if ingResp.StatusCode != http.StatusOK || ack.Rows != 5 {
		t.Fatalf("ingest status %d ack %+v", ingResp.StatusCode, ack)
	}
	if want := s.store.Generation(); ack.Generation != want || gen0 != strconv.FormatUint(want-1, 10) {
		t.Fatalf("one batch moved the generation %s → %d (acked %d), want one step", gen0, want, ack.Generation)
	}

	// The bump invalidates the cached response exactly once: one new
	// miss, then hits again.
	for i, want := range []string{"miss", "hit", "hit"} {
		resp, _ = get(t, u)
		if got := resp.Header.Get("X-Cache"); got != want {
			t.Fatalf("query %d after ingest: X-Cache = %q, want %q", i, got, want)
		}
		if got := resp.Header.Get("X-Rows"); got != "15" {
			t.Fatalf("query %d after ingest: X-Rows = %q, want 15", i, got)
		}
		if gen := resp.Header.Get("X-Store-Generation"); gen == gen0 {
			t.Fatalf("generation did not advance past %s", gen0)
		}
	}
	if misses.Value() != 2 {
		t.Fatalf("misses after one generation bump = %d, want exactly 2", misses.Value())
	}
	if cacheEntries(t, ts.URL) == 0 {
		t.Fatal("cache is empty")
	}
}

func TestIngestBinaryBatch(t *testing.T) {
	_, ts := testServer(t, Config{})

	batch := testStore(t, 3) // distinct store rendered as a columnar blob
	path := filepath.Join(t.TempDir(), "batch.colstore")
	if err := batch.DumpBinaryFile(path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/ingest", "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ack ingestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || ack.Rows != 3 {
		t.Fatalf("binary ingest: status %d ack %+v", resp.StatusCode, ack)
	}
}

func TestQueryValidation(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, bad := range []string{
		"/query?fields=NoSuchField",
		"/query?start=not-a-time",
		"/query?state=NOT_A_STATE",
		"/query?limit=-3",
		"/query?steps=maybe",
		"/query?start=2024-02&end=2024-01",
	} {
		resp, body := get(t, ts.URL+bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", bad, resp.StatusCode, strings.TrimSpace(body))
		}
	}
	resp, _ := get(t, ts.URL+"/figures/not-a-figure.json")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown figure: status %d, want 404", resp.StatusCode)
	}
}

// midScanCtx runs land the first time the request's context is asked for
// a value — which the store's scan does, for its span, after handleQuery
// has read the generation for its cache key and before the scan looks at
// a shard. It is how an append is made to land exactly in that gap.
type midScanCtx struct {
	context.Context
	once *sync.Once
	land func()
}

func (c midScanCtx) Value(key any) any {
	c.once.Do(c.land)
	return c.Context.Value(key)
}

// TestQueryLabelledWithTheGenerationItScanned forces an AppendBatch
// between /query reading the store's generation and its scan: the body
// then holds the appended row, so it must be labelled with the generation
// that row belongs to — not the one read first, under which the response
// cache would go on serving it as an answer about the older store.
func TestQueryLabelledWithTheGenerationItScanned(t *testing.T) {
	for _, binary := range []bool{false, true} {
		store := testStore(t, 10)
		if binary {
			store = binaryStore(t, 10)
		}
		srv, err := New(Config{Store: store})
		if err != nil {
			t.Fatal(err)
		}
		gen0 := store.Generation()
		late := testRecord(77, time.Date(2024, 1, 10, 5, 30, 0, 0, time.UTC)) // between two stored rows
		ctx := midScanCtx{Context: context.Background(), once: new(sync.Once), land: func() {
			if _, _, err := store.AppendBatch([]slurm.Record{late}); err != nil {
				t.Error(err)
			}
		}}
		const url = "/query?fields=JobID,User&start=2024-01-10&end=2024-01-11"
		w := httptest.NewRecorder()
		srv.handleQuery(w, httptest.NewRequest("GET", url, nil).WithContext(ctx))
		if store.Generation() != gen0+1 {
			t.Fatalf("binary %v: the append did not land mid-request: generation %d, want %d", binary, store.Generation(), gen0+1)
		}

		var want bytes.Buffer
		rows, err := store.WriteN(&want, sacct.Query{Fields: []string{"JobID", "User"}, Start: time.Date(2024, 1, 10, 0, 0, 0, 0, time.UTC), End: time.Date(2024, 1, 11, 0, 0, 0, 0, time.UTC)}, 0)
		if err != nil {
			t.Fatal(err)
		}
		label := w.Header().Get("X-Store-Generation")
		switch {
		case w.Code != http.StatusOK:
			t.Fatalf("binary %v: status %d: %s", binary, w.Code, w.Body)
		case label == strconv.FormatUint(gen0+1, 10) && bytes.Equal(w.Body.Bytes(), want.Bytes()) && w.Header().Get("X-Rows") == strconv.Itoa(rows):
			// the body is generation gen0+1's, and says so
		case label == strconv.FormatUint(gen0, 10) && w.Header().Get("X-Rows") == strconv.Itoa(rows-1):
			// the scan ran on a capture older than the append: also true
		default:
			t.Fatalf("binary %v: body of %s rows labelled generation %s; generation %d holds %d rows in the window and generation %d one more",
				binary, w.Header().Get("X-Rows"), label, gen0, rows-1, gen0+1)
		}

		// The next request asks at the new generation and must not be served
		// the mislabelled-by-key entry as an older store's answer.
		w = serveDirect(srv.Handler(), "GET", url, nil)
		if got := w.Header().Get("X-Store-Generation"); got != strconv.FormatUint(gen0+1, 10) || !bytes.Equal(w.Body.Bytes(), want.Bytes()) {
			t.Fatalf("binary %v: follow-up labelled %s (X-Cache %s), want generation %d and its rows", binary, got, w.Header().Get("X-Cache"), gen0+1)
		}
	}
}

func TestQueryWindowAndFilters(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, body := get(t, ts.URL+"/query?fields=JobID,User&user=u01&start=2024-01-01&end=2024-03-01")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 3 { // header + 2 rows for u01 of 10
		t.Fatalf("got %d lines: %q", len(lines), body)
	}
	for _, l := range lines[1:] {
		if !strings.HasSuffix(l, "|u01") {
			t.Fatalf("row %q does not match filter", l)
		}
	}
}

func TestFigureEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{System: "testsys"})
	resp, body := get(t, ts.URL+"/figures/fig1-volume.json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var spec map[string]any
	if err := json.Unmarshal([]byte(body), &spec); err != nil {
		t.Fatalf("figure is not JSON: %v", err)
	}
	if title, _ := spec["title"].(string); !strings.Contains(title, "testsys") {
		t.Fatalf("title %q does not mention the system", spec["title"])
	}
	resp, _ = get(t, ts.URL+"/figures/fig1-volume.json")
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("repeat figure X-Cache = %q, want hit", got)
	}
}

func TestThrottle(t *testing.T) {
	_, ts := testServer(t, Config{RatePerSec: 0.001, Burst: 2})
	var got []int
	for i := 0; i < 4; i++ {
		resp, _ := get(t, ts.URL+"/query?fields=JobID")
		got = append(got, resp.StatusCode)
		if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
			t.Fatal("429 without Retry-After")
		}
	}
	want := []int{200, 200, 429, 429}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("statuses %v, want %v", got, want)
		}
	}
	// /healthz and /metrics stay open under throttling.
	for _, p := range []string{"/healthz", "/metrics"} {
		if resp, _ := get(t, ts.URL+p); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s throttled", p)
		}
	}
}

// TestThrottleIgnoresUncheckedAPIKey pins the bucket to the remote host:
// queryd checks no credential, so a client that sends a fresh X-API-Key
// on every request is still one client.
func TestThrottleIgnoresUncheckedAPIKey(t *testing.T) {
	_, ts := testServer(t, Config{RatePerSec: 0.001, Burst: 1})
	var got []int
	for _, key := range []string{"a", "b", "c"} {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/query?fields=JobID", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-API-Key", key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		got = append(got, resp.StatusCode)
	}
	if want := []int{200, 429, 429}; !slices.Equal(got, want) {
		t.Fatalf("statuses %v for keys a, b, c from one host, want %v", got, want)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatal(resp.StatusCode)
	}
	var h map[string]any
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h["rows"].(float64) != 10 || h["status"] != "ok" {
		t.Fatalf("healthz %v", h)
	}
}

// TestCacheSingleFlight pins the dedup contract: concurrent identical
// misses run the computation once and everyone shares the result.
func TestCacheSingleFlight(t *testing.T) {
	c := newRespCache(8, obs.NewRegistry())
	var computes int32
	var mu sync.Mutex
	release := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	outcomes := make([]cacheOutcome, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ent, out, err := c.do(0, cacheKey{figure: "k"}, func() (*entry, error) {
				mu.Lock()
				computes++
				mu.Unlock()
				<-release
				return &entry{body: []byte("v")}, nil
			})
			if err != nil || string(ent.body) != "v" {
				t.Errorf("do: %v %q", err, ent.body)
			}
			outcomes[i] = out
		}(i)
	}
	time.Sleep(50 * time.Millisecond) // let followers queue up
	close(release)
	wg.Wait()
	if computes != 1 {
		t.Fatalf("computed %d times, want 1", computes)
	}
	var miss, coal int
	for _, o := range outcomes {
		switch o {
		case cacheMiss:
			miss++
		case cacheCoalesced:
			coal++
		}
	}
	if miss != 1 || coal != n-1 {
		t.Fatalf("miss=%d coalesced=%d, want 1/%d", miss, coal, n-1)
	}
}

func TestCacheEvictionAndBypass(t *testing.T) {
	c := newRespCache(2, obs.NewRegistry())
	mk := func(key string, bypass bool) {
		t.Helper()
		if _, _, err := c.do(0, cacheKey{figure: key}, func() (*entry, error) {
			return &entry{body: []byte(key), bypass: bypass}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	mk("a", false)
	mk("b", false)
	mk("c", false) // evicts a
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	_, out, _ := c.do(0, cacheKey{figure: "a"}, func() (*entry, error) { return &entry{body: []byte("a2")}, nil })
	if out != cacheMiss {
		t.Fatalf("evicted key came back as %v", out)
	}
	mk("big", true) // bypass: computed but never cached
	_, out, _ = c.do(0, cacheKey{figure: "big"}, func() (*entry, error) { return &entry{body: []byte("big2"), bypass: true}, nil })
	if out != cacheMiss {
		t.Fatalf("bypass entry was cached (outcome %v)", out)
	}
	// A failed computation is not cached either.
	c.do(0, cacheKey{figure: "err"}, func() (*entry, error) { return nil, fmt.Errorf("boom") })
	_, out, err := c.do(0, cacheKey{figure: "err"}, func() (*entry, error) { return &entry{body: []byte("ok")}, nil })
	if err != nil || out != cacheMiss {
		t.Fatalf("error entry was cached (outcome %v err %v)", out, err)
	}
}

func TestWatcherTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "slurm-2024-01.txt")
	st := sacct.NewStore()
	srv, err := New(Config{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	w := &Watcher{Path: path, Server: srv}

	// Missing file: wait, no error.
	if n, bad, err := w.poll(); n != 0 || bad != 0 || err != nil {
		t.Fatalf("poll on missing file: %d %d %v", n, bad, err)
	}

	base := time.Date(2024, 1, 5, 0, 0, 0, 0, time.UTC)
	r0, r1, r2 := testRecord(0, base), testRecord(1, base.Add(time.Hour)), testRecord(2, base.Add(2*time.Hour))
	full := textBatch(t, r0, r1, r2)
	lines := strings.SplitAfter(full, "\n")

	// Header + first row + half of the second row.
	half := lines[0] + lines[1] + lines[2][:8]
	if err := os.WriteFile(path, []byte(half), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, _, err := w.poll(); err != nil || n != 1 {
		t.Fatalf("first poll: n=%d err=%v, want 1 row", n, err)
	}
	// Rest of the file, plus one malformed line.
	rest := lines[2][8:] + lines[3] + "not|a|row\n"
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(rest); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if n, bad, err := w.poll(); err != nil || n != 2 || bad != 1 {
		t.Fatalf("second poll: n=%d bad=%d err=%v, want 2/1", n, bad, err)
	}
	if st.Len() != 3 {
		t.Fatalf("store has %d rows, want 3", st.Len())
	}

	// Rotation: a shorter file resets the tail, header and all.
	if err := os.WriteFile(path, []byte(textBatch(t, testRecord(9, base.AddDate(0, 1, 0)))), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, _, err := w.poll(); err != nil || n != 1 {
		t.Fatalf("post-rotation poll: n=%d err=%v, want 1", n, err)
	}
	if st.Len() != 4 {
		t.Fatalf("store has %d rows after rotation, want 4", st.Len())
	}
}

// TestWatcherRotationToALongerFile: a new file renamed over the tailed
// path is read from its top even when it is already longer than what the
// watcher had read of the old one. Before, only a shrink reset the tail,
// so the new file's first rows were skipped without a malformed count.
func TestWatcherRotationToALongerFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "slurm-2024-01.txt")
	st := sacct.NewStore()
	srv, err := New(Config{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	w := &Watcher{Path: path, Server: srv}
	base := time.Date(2024, 1, 5, 0, 0, 0, 0, time.UTC)
	if err := os.WriteFile(path, []byte(textBatch(t, testRecord(0, base), testRecord(1, base.Add(time.Hour)))), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, bad, err := w.poll(); err != nil || n != 2 || bad != 0 {
		t.Fatalf("first poll: n=%d bad=%d err=%v, want 2 rows", n, bad, err)
	}
	var next []slurm.Record
	for i := range 4 {
		next = append(next, testRecord(10+i, base.AddDate(0, 1, i)))
	}
	rotated := filepath.Join(dir, "next.txt")
	if err := os.WriteFile(rotated, []byte(textBatch(t, next...)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(rotated, path); err != nil {
		t.Fatal(err)
	}
	if n, bad, err := w.poll(); err != nil || n != 4 || bad != 0 {
		t.Fatalf("post-rotation poll: n=%d bad=%d err=%v, want 4 rows", n, bad, err)
	}
	if st.Len() != 6 {
		t.Fatalf("store has %d rows after rotation, want 6", st.Len())
	}
}

// TestTextDoorsSkipRowsTheFormatCannotHold: a row submitted in 1600 is
// one the store would refuse, so /ingest and the Watcher count it
// malformed and land the rest of its batch, as they do a row that does
// not decode: the batch is acked, and a tailed file keeps being tailed.
func TestTextDoorsSkipRowsTheFormatCannotHold(t *testing.T) {
	m := obs.NewRegistry()
	s, ts := testServer(t, Config{Metrics: m})
	rows := s.store.Len()
	far := time.Date(1600, 3, 10, 0, 0, 0, 0, time.UTC)
	good := time.Date(2031, 1, 1, 0, 0, 0, 0, time.UTC)
	resp, err := http.Post(ts.URL+"/ingest", "text/plain", strings.NewReader(textBatch(t, testRecord(500, good), testRecord(501, far))))
	if err != nil {
		t.Fatal(err)
	}
	var ack ingestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ack.Rows != 1 || ack.Malformed != 1 || s.store.Len() != rows+1 {
		t.Fatalf("ingest status %d, ack %+v, store %d rows; want 200, 1 row, 1 malformed, %d rows", resp.StatusCode, ack, s.store.Len(), rows+1)
	}
	if got := m.Counter("serve_ingest_malformed_total").Value(); got != 1 {
		t.Errorf("serve_ingest_malformed_total = %d, want 1", got)
	}

	path := filepath.Join(t.TempDir(), "tail.txt")
	if err := os.WriteFile(path, []byte(textBatch(t, testRecord(502, far), testRecord(503, good.Add(time.Hour)))), 0o644); err != nil {
		t.Fatal(err)
	}
	w := &Watcher{Path: path, Server: s}
	if n, bad, err := w.poll(); err != nil || n != 1 || bad != 1 {
		t.Fatalf("poll: n=%d bad=%d err=%v, want 1/1", n, bad, err)
	}
	if s.store.Len() != rows+2 {
		t.Fatalf("store has %d rows, want %d", s.store.Len(), rows+2)
	}
}

func TestDrainShutdown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- Drain(ctx, srv, ln, 2*time.Second, nil) }()

	resp, err := http.Get("http://" + ln.Addr().String() + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain did not return after cancel")
	}
}

// TestTextRowsDumpTheSameThroughLoadAndIngest: there is one text decoder,
// so the same rows reach the store as the same records whichever door
// they came in by — an empty ReqTRES cell is a nil map through sacct.Load
// exactly as through /ingest, and the two stores dump to byte-identical
// colstore files.
func TestTextRowsDumpTheSameThroughLoadAndIngest(t *testing.T) {
	text := "JobID|User|Submit|Start|End|Elapsed|State|NNodes|ReqTRES|TRESUsageInAve\n" +
		"9000001|a|2031-01-01T00:00:00|2031-01-01T00:10:00|2031-01-01T01:10:00|01:00:00|COMPLETED|4||\n" +
		"9000002|b|2031-01-01T00:05:00|2031-01-01T00:15:00|2031-01-01T01:15:00|01:00:00|FAILED|2|cpu=8,mem=4G,node=2|cpu=7\n"
	dir := t.TempDir()

	loaded, malformed, err := sacct.Load(strings.NewReader(text))
	if err != nil || malformed != 0 {
		t.Fatalf("load: %d malformed, %v", malformed, err)
	}
	viaLoad := filepath.Join(dir, "load.colstore")
	if err := loaded.DumpBinaryFile(viaLoad); err != nil {
		t.Fatal(err)
	}

	header, rows := splitHeader([]byte(text))
	recs, malformed, err := decodeRows(header, rows)
	if err != nil || malformed != 0 || len(recs) != 2 {
		t.Fatalf("decodeRows: %d rows, %d malformed, %v", len(recs), malformed, err)
	}
	ingested := sacct.NewStore()
	if _, _, err := ingested.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	viaIngest := filepath.Join(dir, "ingest.colstore")
	if err := ingested.DumpBinaryFile(viaIngest); err != nil {
		t.Fatal(err)
	}

	a, err := os.ReadFile(viaLoad)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(viaIngest)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("the same two text rows dump to different colstore bytes: %d via Load, %d via ingest", len(a), len(b))
	}
}

// TestLoadAndIngestKeepRowsOfTheirOwn: the text reader refills one pair
// of TRES maps row after row, so the two doors that keep its rows —
// sacct.Load and decodeRows (POST /ingest, -watch) — must Clone them.
// Every kept row holds TRES maps of its own however alike the cells, a
// blank cell is nil, and the flag lists rows share are never written
// through: the Backfill column merging its flag in, or an append to one
// row's flags, reallocates.
func TestLoadAndIngestKeepRowsOfTheirOwn(t *testing.T) {
	text := "JobID|User|Submit|Flags|Backfill|ReqTRES|TRESUsageInAve\n" +
		"1|alice|2031-01-01T00:00:00|SchedMain|1|cpu=8,mem=4G|cpu=7\n" +
		"2|bob|2031-01-01T00:01:00|SchedMain|0|cpu=8,mem=4G|\n" +
		"3|carol|2031-01-01T00:02:00|SchedMain|1|cpu=8,mem=4G|cpu=7\n"
	loaded, malformed, err := sacct.Load(strings.NewReader(text))
	if err != nil || malformed != 0 {
		t.Fatalf("load: %d malformed, %v", malformed, err)
	}
	var viaLoad []slurm.Record
	for r, err := range loaded.Scan(sacct.Query{IncludeSteps: true}) {
		if err != nil {
			t.Fatal(err)
		}
		viaLoad = append(viaLoad, *r) // in-memory rows: the store's own maps
	}
	header, rows := splitHeader([]byte(text))
	viaIngest, malformed, err := decodeRows(header, rows)
	if err != nil || malformed != 0 {
		t.Fatalf("decodeRows: %d malformed, %v", malformed, err)
	}

	for door, rows := range map[string][]slurm.Record{"Load": viaLoad, "decodeRows": viaIngest} {
		if len(rows) != 3 {
			t.Fatalf("%s kept %d rows, want 3", door, len(rows))
		}
		wantFlags := [][]string{{slurm.FlagMain, slurm.FlagBackfill}, {slurm.FlagMain}, {slurm.FlagMain, slurm.FlagBackfill}}
		for i, want := range wantFlags {
			if !slices.Equal(rows[i].Flags, want) {
				t.Errorf("%s: row %d flags %v, want %v", door, i+1, rows[i].Flags, want)
			}
		}
		if rows[0].User != "alice" || rows[1].User != "bob" || rows[2].User != "carol" {
			t.Errorf("%s: users %q %q %q", door, rows[0].User, rows[1].User, rows[2].User)
		}
		if rows[1].TRESUsageInAve != nil {
			t.Errorf("%s: row 2 TRESUsageInAve %v, want nil for a blank cell", door, rows[1].TRESUsageInAve)
		}
		rows[0].TRESReq["cpu"], rows[0].TRESUsageInAve["cpu"] = 99, 99
		rows[1].Flags = append(rows[1].Flags, "Mine")
		for i := 1; i < 3; i++ {
			if rows[i].TRESReq["cpu"] != 8 {
				t.Errorf("%s: row %d shares its ReqTRES map with row 1", door, i+1)
			}
		}
		if rows[2].TRESUsageInAve["cpu"] != 7 {
			t.Errorf("%s: row 3 shares its TRESUsageInAve map with row 1", door)
		}
		if !slices.Equal(rows[2].Flags, wantFlags[2]) || !slices.Equal(rows[0].Flags, wantFlags[0]) {
			t.Errorf("%s: an append to row 2's flags reached rows 1 and 3: %v, %v", door, rows[0].Flags, rows[2].Flags)
		}
	}
}

// TestIngestOversizedRowNamesTheLine: a row past the one reader's cap is
// refused by /ingest with the message Load and the curate stage give.
func TestIngestOversizedRowNamesTheLine(t *testing.T) {
	s, ts := testServer(t, Config{})
	gen := s.store.Generation()
	body := "JobID|User\n1|alice\n2|" + strings.Repeat("x", slurm.MaxLineLen+5) + "\n3|bob\n"
	resp, err := http.Post(ts.URL+"/ingest", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest ||
		strings.TrimSpace(string(msg)) != "slurm: line 3: row exceeds 8388608 bytes" {
		t.Errorf("status %d, body %q", resp.StatusCode, msg)
	}
	if s.store.Generation() != gen {
		t.Error("a refused batch moved the generation")
	}
}

// TestParseTimeParamByShape pins that choosing layouts by a value's shape
// changes no answer: every value, well formed or not, parses to what the
// first of all seven layouts to accept it gives, or fails when none
// does. A well-formed value parses without allocating.
func TestParseTimeParamByShape(t *testing.T) {
	allLayouts := func(s string) (time.Time, bool) {
		if n, err := strconv.ParseInt(s, 10, 64); err == nil && len(s) >= 9 {
			return time.Unix(n, 0).UTC(), true
		}
		for _, layout := range []string{time.RFC3339Nano, time.RFC3339, "2006-01-02T15:04:05",
			"2006-01-02 15:04:05", "2006-01-02", "2006-01", "2006"} {
			if t, err := time.Parse(layout, s); err == nil {
				return t.UTC(), true
			}
		}
		return time.Time{}, false
	}
	values := []string{
		"2024", "2024-02", "2024-02-29", "2023-02-29", "2024-02-03T04:05:06", "2024-02-03 04:05:06",
		"2024-02-03  04:05:06", "2024-02-03T4:05:06", "2024-02-03T04:05:06.5", "2024-02-03T04:05:06,25",
		"2024-02-03T04:05:06.123456789", "2024-02-03T04:05:06Z", "2024-02-03T04:05:06.5Z",
		"2024-02-03T04:05:06+02:00", "2024-02-03T04:05:06-07:30", "2024-02-03T04:05:06.123-07:30",
		"2024-02-03T4:05:06Z", "2024-02-03t04:05:06Z", "2024-02-03T04:05:06z", "2024-02-03T04:05",
		"2024-02-03T04:05:06+0200", "2024-02-03T04:05:06 ", "1700000000", "-1700000000", "+170000000",
		"17000000", "99999999999999999999", "2024-2-3", "2024-13", "24-02-03", "+202-02-03", "-202",
		"abcd", "abcdefg", "abcdefghij", "2024-02-03X04:05:06", "2024-02-03T24:00:00", "2024-02-03T04:05:06Q",
		"x", "2024-02-03T04:05:06+02:00Z", "２０２４",
	}
	// And every one-byte change of each well-formed spelling.
	for _, tmpl := range []string{"2024-02-03T04:05:06.5+02:00", "2024-02-03T04:05:06Z", "2024-02-03T04:05:06",
		"2024-02-03 04:05:06", "2024-02-03", "2024-02", "2024", "1700000000"} {
		for i := range tmpl {
			for _, c := range []byte("0159-+:.,TZz tx") {
				values = append(values, tmpl[:i]+string(c)+tmpl[i+1:])
			}
		}
	}
	for _, s := range values {
		want, ok := allLayouts(s)
		got, err := parseTimeParam(s)
		if ok != (err == nil) || !got.Equal(want) || got.Location() != want.Location() {
			t.Errorf("%q: got %v (err %v), every layout in turn gives %v (ok %v)", s, got, err, want, ok)
		}
	}
	if raceEnabled {
		return
	}
	for _, s := range []string{"2024", "2024-02", "2024-02-03", "2024-02-03T04:05:06", "2024-02-03 04:05:06", "2024-02-03T04:05:06Z", "1700000000"} {
		if n := testing.AllocsPerRun(100, func() { parseTimeParam(s) }); n != 0 {
			t.Errorf("%q: %v allocations per parse, want 0", s, n)
		}
	}
}
