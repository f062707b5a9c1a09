package serve

import (
	"context"
	"expvar"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"slurmsight/internal/obs"
)

// The flight recorder every serving process keeps: the 256 most recent
// traces, and the 8 slowest of each route.
const flightRing, flightTail = 256, 8

// shell assembles the serving stack, the one operational surface every
// serving process in this repo answers with (queryd through
// Server.Handler; llmserve, dashboard and schedflow -serve through
// Serve). It mounts the debug routes on mux beside the caller's own:
//
//	GET /metrics         Prometheus text (runtime collector included)
//	GET /debug/vars      expvar JSON
//	GET /debug/requests  flight recorder (HTML; ?format=json)
//	GET /debug/pprof/*   profiling
//
// and wraps the whole mux in one request middleware metering under
// prefix, so the debug routes are counted and traced like any other.
// Mounting also installs the runtime scrape hook (goroutines, heap, GC)
// on m, so every /metrics pull reports process health without a
// background sampler. rec may be nil: nothing is recorded and
// /debug/requests serves an empty snapshot instead of 404ing. A request
// at or past slow earns a line on log; slow ≤ 0 or a nil log turns that
// off.
func shell(mux *http.ServeMux, prefix string, m *obs.Registry, rec *obs.Recorder, slow time.Duration, log *slog.Logger) http.Handler {
	obs.PublishRuntime(m)
	mux.Handle("GET /metrics", m.Handler())
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.Handle("GET /debug/requests", rec.Handler())
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return middleware{
		Registry:      m,
		Prefix:        prefix,
		Recorder:      rec,
		SlowThreshold: slow,
		Log:           log,
	}.wrap(mux)
}

// Serve runs a serving binary around h until ctx is done or the process
// receives SIGINT/SIGTERM, then drains (ListenAndDrain). h answers every
// path the debug routes leave; the stack around it meters into m (nil
// allocates a registry), published to expvar as name and under the
// metric prefix name, keeps the standard flight recorder, and logs a
// request slower than slow (≤ 0: never) as one JSON line on stderr.
func Serve(ctx context.Context, addr, name string, m *obs.Registry, h http.Handler, slow, grace time.Duration, logf func(string, ...any)) error {
	if m == nil {
		m = obs.NewRegistry()
	}
	m.PublishExpvar(name)
	mux := http.NewServeMux()
	mux.Handle("/", h)
	rec := obs.NewRecorder(flightRing, flightTail)
	log := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	return ListenAndDrain(ctx, addr, shell(mux, name, m, rec, slow, log), grace, logf)
}
