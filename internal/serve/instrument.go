package serve

import (
	"context"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"slurmsight/internal/obs"
)

// statusWriter captures the response status for the request metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// routeOf collapses a request path to a bounded-cardinality route label
// for metrics and the flight recorder: parameterised segments fold into
// their prefix (/figures/fig1.json → /figures), the LLM API keeps its
// two-segment verbs (/v1/analyze), everything else keeps its first
// segment. Bounded labels are what keep per-route histograms and the
// tail sampler from growing with client-chosen paths.
func routeOf(p string) string {
	if p == "" || p == "/" {
		return "/"
	}
	switch {
	case strings.HasPrefix(p, "/figures/"):
		return "/figures"
	case strings.HasPrefix(p, "/debug/pprof"):
		return "/debug/pprof"
	case strings.HasPrefix(p, "/files/"):
		return "/files"
	case strings.HasPrefix(p, "/insight/"):
		return "/insight"
	}
	rest := p[1:]
	i := strings.IndexByte(rest, '/')
	if i < 0 {
		return p
	}
	if strings.HasPrefix(p, "/v1/") {
		if j := strings.IndexByte(rest[i+1:], '/'); j >= 0 {
			return "/" + rest[:i+1+j]
		}
		return p
	}
	return "/" + rest[:i]
}

// middleware is the serving plane's request instrumentation: RED
// metrics (request/error counters and a latency histogram, total and
// per-route), and — when a Recorder or Log is set — a per-request trace:
// a minted trace ID (echoed in X-Trace-Id), a root span propagated via
// the request context so every layer underneath (cache, throttler,
// store scans, colstore decodes, analyze, figure render) can attach
// named child spans, the completed trace fed to the flight recorder,
// and a structured slow-request log line carrying the trace ID for
// log↔trace correlation.
//
// With Recorder and Log both nil the middleware degrades to the plain
// metrics wrapper (the pre-tracing baseline): no per-request
// allocations beyond the status shim. A nil Registry meters nothing at
// no cost.
type middleware struct {
	Registry *obs.Registry
	Prefix   string // metric name prefix, e.g. "serve"

	Recorder      *obs.Recorder // nil: no flight recording
	SlowThreshold time.Duration // ≤ 0 disables the slow-request log
	Log           *slog.Logger  // nil: no structured request log
}

// rootAttrs is the room a request's root span reserves for what the
// handler and the middleware add: cache, generation and rows on /query,
// bundle on a figure miss, throttled and retry_after_s on a 429, and the
// status. Its path and client are the trace's own fields, which
// /debug/requests shows among the root's attributes.
const rootAttrs = 4

// routeMeters are one route's request counter and latency histogram and
// the root span name of a GET on it, resolved on the route's first
// request. Its error counter is resolved on its first error, so a route
// that never failed shows no error series.
type routeMeters struct {
	requests *obs.Counter
	latency  *obs.Histogram
	get      string
}

// rootName is the root span's name for a request on the route.
func (rm *routeMeters) rootName(method, route string) string {
	if method == http.MethodGet {
		return rm.get
	}
	return method + " " + route
}

// wrap instruments next. shell wraps it around whatever the client
// actually observes (outside fault injection, inside nothing) so the
// counters agree with client-side measurements.
func (mw middleware) wrap(next http.Handler) http.Handler {
	m := mw.Registry
	requests := m.Counter(mw.Prefix + "_requests_total")
	class2xx := m.Counter(mw.Prefix + "_responses_2xx_total")
	class4xx := m.Counter(mw.Prefix + "_responses_4xx_total")
	class5xx := m.Counter(mw.Prefix + "_responses_5xx_total")
	latency := m.Histogram(mw.Prefix+"_request_seconds", obs.LatencyBuckets)
	inflight := m.Gauge(mw.Prefix + "_inflight_requests")
	tracing := mw.Recorder != nil || (mw.Log != nil && mw.SlowThreshold > 0)

	// The route cache holds a pointer per route the registry already
	// holds metrics for, so it grows no faster than the registry does.
	var (
		routesMu sync.RWMutex
		routes   = map[string]*routeMeters{}
	)
	metersFor := func(route string) *routeMeters {
		routesMu.RLock()
		rm := routes[route]
		routesMu.RUnlock()
		if rm != nil {
			return rm
		}
		rm = &routeMeters{
			requests: m.Counter(obs.Label(mw.Prefix+"_route_requests_total", "route", route)),
			latency:  m.Histogram(obs.Label(mw.Prefix+"_route_request_seconds", "route", route), obs.LatencyBuckets),
			get:      http.MethodGet + " " + route,
		}
		routesMu.Lock()
		routes[route] = rm
		routesMu.Unlock()
		return rm
	}

	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := routeOf(r.URL.Path)
		rm := metersFor(route)
		requests.Inc()
		rm.requests.Inc()
		inflight.Add(1)
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}

		var rt *obs.RequestTrace
		var root *obs.Span
		if tracing {
			rt = &obs.RequestTrace{
				ID:     obs.NewTraceID(),
				Route:  route,
				Method: r.Method,
				Path:   r.URL.Path,
				Client: clientKey(r),
				Start:  t0,
			}
			root = obs.StartRequest(rm.rootName(r.Method, route), t0, rootAttrs)
			w.Header().Set("X-Trace-Id", rt.ID)
			r = r.WithContext(obs.ContextWithSpan(r.Context(), root))
		}

		next.ServeHTTP(sw, r)

		dur := time.Since(t0)
		latency.Observe(dur.Seconds())
		rm.latency.Observe(dur.Seconds())
		inflight.Add(-1)
		switch {
		case sw.status >= 500:
			class5xx.Inc()
			m.Counter(obs.Label(mw.Prefix+"_route_errors_total", "route", route)).Inc()
		case sw.status >= 400:
			class4xx.Inc()
		default:
			class2xx.Inc()
		}

		if !tracing {
			return
		}
		root.SetAttrInt("status", int64(sw.status))
		rt.Status, rt.Duration = sw.status, dur
		rt.Spans = obs.EndRequest(root)
		mw.Recorder.Record(rt)
		if mw.Log != nil && mw.SlowThreshold > 0 && dur >= mw.SlowThreshold {
			mw.Log.LogAttrs(context.Background(), slog.LevelWarn, "slow request",
				slog.String("trace_id", rt.ID),
				slog.String("route", route),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", sw.status),
				slog.Float64("duration_ms", float64(dur.Microseconds())/1000),
				slog.String("client", rt.Client),
				slog.String("cache", rt.Spans[0].Attr("cache")),
			)
		}
	})
}
