package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"slurmsight/internal/obs"
	"slurmsight/internal/sacct"
	"slurmsight/internal/slurm"
)

// TestLiveTailInstruments: a batch into a later month seals the month
// before it, /healthz reports the rows still held as Records, /metrics
// the segments, and the first request at the new generation drops every
// cached answer about the old one — counted as stale, not evicted.
func TestLiveTailInstruments(t *testing.T) {
	m := obs.NewRegistry()
	s, ts := testServer(t, Config{Metrics: m})
	for _, p := range []string{"/query?fields=JobID", "/query?fields=JobID,User&steps=1", "/figures/fig1-volume.json"} {
		if resp, body := get(t, ts.URL+p); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", p, resp.StatusCode, body)
		}
	}
	if s.CacheLen() != 3 {
		t.Fatalf("cache holds %d entries, want 3", s.CacheLen())
	}

	feb := time.Date(2024, 2, 1, 0, 0, 0, 0, time.UTC)
	var recs []slurm.Record
	for i := 0; i < 5; i++ {
		recs = append(recs, testRecord(100+i, feb.Add(time.Duration(i)*time.Hour)))
	}
	resp, err := http.Post(ts.URL+"/ingest", "text/plain", strings.NewReader(textBatch(t, recs...)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp, _ := get(t, ts.URL+"/query?fields=JobID"); resp.Header.Get("X-Rows") != "15" || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("query after the batch: X-Rows %s, X-Cache %s", resp.Header.Get("X-Rows"), resp.Header.Get("X-Cache"))
	}
	if s.CacheLen() != 1 {
		t.Fatalf("cache holds %d entries after a request at a newer generation, want only that one", s.CacheLen())
	}

	_, body := get(t, ts.URL+"/healthz")
	var h struct {
		Rows    int `json:"rows"`
		MemRows int `json:"mem_rows"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.Rows != 15 || h.MemRows != 5 {
		t.Fatalf("healthz %s: want 15 rows, 5 of them held as Records (January sealed)", body)
	}
	_, metrics := get(t, ts.URL+"/metrics")
	for _, want := range []string{"\nsacct_segments 1\n", "\nsacct_mem_rows 5\n", "\nsacct_seals_total 1\n", "\nserve_cache_stale_total 3\n", "\nserve_cache_evictions_total 0\n"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q", strings.TrimSpace(want))
		}
	}
}

// TestCacheKeepsNothingForADeadGeneration: a computation that finishes
// after a request at a newer generation has arrived is handed to its
// waiters but not kept, since nothing can ask for it again.
func TestCacheKeepsNothingForADeadGeneration(t *testing.T) {
	reg := obs.NewRegistry()
	c := newRespCache(8, reg)
	release, started := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ent, _, err := c.do(1, "g=1|old", func() (*entry, error) {
			close(started)
			<-release
			return &entry{body: []byte("old")}, nil
		})
		if err != nil || string(ent.body) != "old" {
			t.Errorf("the older flight got %v, %v", ent, err)
		}
	}()
	<-started
	if _, _, err := c.do(2, "g=2|new", func() (*entry, error) { return &entry{body: []byte("new")}, nil }); err != nil {
		t.Fatal(err)
	}
	close(release)
	wg.Wait()
	if c.len() != 1 || reg.Counter("serve_cache_stale_total").Value() != 1 {
		t.Fatalf("cache holds %d entries, %d stale; want the newer one kept and the older one counted stale",
			c.len(), reg.Counter("serve_cache_stale_total").Value())
	}
	if _, out, _ := c.do(2, "g=2|new", func() (*entry, error) { return nil, nil }); out != cacheHit {
		t.Fatalf("the newer entry came back %v", out)
	}
}

// FuzzDecodeBinaryBatch: the columnar /ingest decoder, which opens the
// request body where it lies, never panics, and every batch it accepts
// holds exactly the rows sacct.OpenBinary reads from the same bytes on
// disk.
func FuzzDecodeBinaryBatch(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	var rows []slurm.Record
	for i := 0; i < 40; i++ {
		rows = append(rows, goldenRow(rng, int64(7000+i), time.Date(2024, 1, 27, 0, 0, 0, 0, time.UTC).Add(time.Duration(i)*5*time.Hour)))
	}
	rows = append(rows, goldenSteps(rng, rows[0])...)
	for _, recs := range [][]slurm.Record{rows[:1], rows} {
		st := sacct.NewStore()
		if _, _, err := st.AppendBatch(slices.Clone(recs)); err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := st.DumpBinary(&buf); err != nil {
			f.Fatal(err)
		}
		body := buf.Bytes()
		f.Add(body)
		f.Add(body[:len(body)/2])
		f.Add(slices.Concat(body[:40], []byte{0xff}, body[41:]))
	}
	f.Add([]byte("SLURMCOL"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		recs, err := decodeBinaryBatch(bytes.Clone(body))
		if err != nil {
			if recs != nil {
				t.Fatalf("error %v alongside %d rows", err, len(recs))
			}
			return
		}
		path := filepath.Join(t.TempDir(), "batch.colstore")
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := sacct.OpenBinary(path)
		if err != nil {
			t.Fatalf("accepted in memory, refused on disk: %v", err)
		}
		defer st.Close()
		want, err := st.Select(sacct.Query{IncludeSteps: true})
		if err != nil {
			t.Fatalf("accepted in memory, unreadable on disk: %v", err)
		}
		if !reflect.DeepEqual(recs, want) {
			t.Fatalf("decoded %d rows that differ from the %d read on disk", len(recs), len(want))
		}
	})
}
