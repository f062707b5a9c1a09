package serve

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"slurmsight/internal/obs"
)

// TestShellSurface runs the serving shell over a stand-in handler and
// over Server.Handler: both must answer the same debug surface, count
// and trace an API request under their prefix, and write its slow-log
// line with the trace ID the response carried.
func TestShellSurface(t *testing.T) {
	cases := []struct {
		name, prefix, path string
		handler            func(log *slog.Logger) http.Handler
	}{
		{"stand-in", "standin", "/hello", func(log *slog.Logger) http.Handler {
			mux := http.NewServeMux()
			mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "hello\n") })
			rec := obs.NewRecorder(flightRing, flightTail)
			return shell(mux, "standin", obs.NewRegistry(), rec, time.Nanosecond, log)
		}},
		{"Server.Handler", "serve", "/healthz", func(log *slog.Logger) http.Handler {
			s, err := New(Config{Store: testStore(t, 10), SlowThreshold: time.Nanosecond, Log: log})
			if err != nil {
				t.Fatal(err)
			}
			return s.Handler()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			logBuf := &syncBuffer{}
			ts := httptest.NewServer(tc.handler(slog.New(slog.NewJSONHandler(logBuf, nil))))
			defer ts.Close()

			resp, _ := get(t, ts.URL+tc.path)
			id := resp.Header.Get("X-Trace-Id")
			if resp.StatusCode != http.StatusOK || len(id) != 16 {
				t.Fatalf("%s: status %d, X-Trace-Id %q", tc.path, resp.StatusCode, id)
			}

			_, metrics := get(t, ts.URL+"/metrics")
			for _, want := range []string{"runtime_goroutines", tc.prefix + "_requests_total"} {
				if !strings.Contains(metrics, want) {
					t.Errorf("/metrics lacks %s", want)
				}
			}
			resp, vars := get(t, ts.URL+"/debug/vars")
			if resp.StatusCode != http.StatusOK || !json.Valid([]byte(vars)) {
				t.Errorf("/debug/vars: status %d, valid JSON %v", resp.StatusCode, json.Valid([]byte(vars)))
			}
			recorded := false
			for _, rt := range fetchTraces(t, ts.URL) {
				recorded = recorded || rt.ID == id
			}
			if !recorded {
				t.Errorf("trace %s not in /debug/requests", id)
			}
			if resp, _ := get(t, ts.URL+"/debug/pprof/"); resp.StatusCode != http.StatusOK {
				t.Errorf("/debug/pprof/: status %d", resp.StatusCode)
			}
			if !strings.Contains(logBuf.String(), `"trace_id":"`+id+`"`) {
				t.Errorf("no slow-log line with trace_id %s:\n%s", id, logBuf.String())
			}
		})
	}
}
