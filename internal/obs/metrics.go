package obs

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Metric naming convention (DESIGN.md §5e): snake_case,
// <subsystem>_<what>_<unit>; monotonic counters end in _total (or in
// _sum when they accumulate a quantity whose sample count is a _total
// beside them, as a histogram's own _sum does), histograms carry their
// unit (_seconds, _bytes) as the suffix.
// Examples: llm_requests_total, dataflow_task_seconds, sched_queue_depth.

// LatencyBuckets is the shared histogram layout for durations in
// seconds: 1 ms to 30 s, roughly geometric — wide enough for both an
// HTTP round trip and a multi-second workflow stage.
var LatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// SizeBuckets is the shared histogram layout for byte sizes: 256 B to
// 16 MiB in powers of four.
var SizeBuckets = []float64{
	256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20,
}

// Counter is a monotonically increasing metric. Nil-safe: Add/Inc on a
// nil counter are free no-ops.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value (queue depth, in-flight
// requests). Nil-safe like Counter.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by delta (use negative deltas to decrement).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into a fixed bucket layout (upper
// bounds, ascending, with an implicit +Inf bucket) and tracks the total
// sum and count. Observe is lock-free and safe for concurrent use;
// nil-safe like Counter.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is +Inf
	sumBits atomic.Uint64  // float64 bits, CAS-accumulated
	count   atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bucket whose upper bound admits v (le semantics).
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the elapsed seconds since t0.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(t0).Seconds())
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Buckets returns the per-bucket (non-cumulative) counts; the final
// entry is the +Inf bucket.
func (h *Histogram) Buckets() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Registry names and owns a process's instruments. Lookups create on
// first use and always return the same instrument for a name, so
// callers may re-resolve freely. A nil *Registry is the "metrics off"
// state: it hands out nil instruments whose methods are free no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	hooks    []scrapeHook
}

// scrapeHook is one named sampler run before every exposition.
type scrapeHook struct {
	name string
	f    func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (later calls keep the original
// layout; buckets must be ascending).
func (r *Registry) Histogram(name string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		bounds := append([]float64(nil), buckets...)
		h = &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
		r.hists[name] = h
	}
	return h
}

// OnScrape registers a sampler that runs immediately before every
// exposition (WriteText, Snapshot): the hook point for metrics that are
// cheaper to read on demand than to push continuously (runtime stats,
// mapped-file sizes). Hooks are keyed by name — registering the same
// name again replaces the old hook, so wiring a collector twice is
// idempotent. Hooks run without the registry lock held; they typically
// Set gauges captured at registration time.
func (r *Registry) OnScrape(name string, f func()) {
	if r == nil || f == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.hooks {
		if r.hooks[i].name == name {
			r.hooks[i].f = f
			return
		}
	}
	r.hooks = append(r.hooks, scrapeHook{name: name, f: f})
}

// scrape runs the registered samplers in registration order.
func (r *Registry) scrape() {
	if r == nil {
		return
	}
	r.mu.Lock()
	hooks := make([]scrapeHook, len(r.hooks))
	copy(hooks, r.hooks)
	r.mu.Unlock()
	for _, h := range hooks {
		h.f()
	}
}

// WriteText renders every instrument in the plain-text exposition
// format (Prometheus 0.0.4 compatible): counters and gauges as single
// samples, histograms as cumulative le-buckets plus _sum and _count.
// Output is sorted by name, so it is stable for a given state.
func (r *Registry) WriteText(w io.Writer) {
	if r == nil {
		return
	}
	r.scrape()
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	for _, name := range sortedKeys(counters) {
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, counters[name].Value())
	}
	for _, name := range sortedKeys(gauges) {
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, gauges[name].Value())
	}
	for _, name := range sortedKeys(hists) {
		h := hists[name]
		fmt.Fprintf(w, "# TYPE %s histogram\n", name)
		var cum int64
		for i, n := range h.Buckets() {
			cum += n
			le := "+Inf"
			if i < len(h.bounds) {
				le = strconv.FormatFloat(h.bounds[i], 'g', -1, 64)
			}
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum)
		}
		fmt.Fprintf(w, "%s_sum %s\n", name, strconv.FormatFloat(h.Sum(), 'g', -1, 64))
		fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
	}
}

// Label renders a metric name with one Prometheus-style label pair
// embedded, e.g. Label("sched_backfill_starts_total", "policy", "easy")
// → sched_backfill_starts_total{policy="easy"}. The registry is purely
// name-keyed, so each labelled name is its own instrument; WriteText
// emits it verbatim, which the Prometheus text format parses as a
// labelled sample. A name that already carries labels gains the pair
// inside its braces: Label(`x_total{phase="a"}`, "policy", "easy") →
// x_total{phase="a",policy="easy"}.
func Label(name, key, value string) string {
	pair := key + "=" + strconv.Quote(value) + "}"
	if strings.HasSuffix(name, "}") {
		return name[:len(name)-1] + "," + pair
	}
	return name + "{" + pair
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Handler serves the registry as a plain-text /metrics endpoint. Safe
// on a nil registry (serves an empty exposition).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteText(w)
	})
}

// Snapshot returns the registry's state as plain values, suitable for
// JSON rendering. Histograms appear as {count, sum, buckets} where
// buckets is the full non-cumulative layout ({le, count} pairs ending
// at +Inf) — the committed bench JSONs carry real latency distributions,
// not just averages.
func (r *Registry) Snapshot() map[string]any {
	if r == nil {
		return nil
	}
	r.scrape()
	out := map[string]any{}
	r.mu.Lock()
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.hists {
		buckets := make([]map[string]any, 0, len(h.counts))
		for i, n := range h.Buckets() {
			le := "+Inf"
			if i < len(h.bounds) {
				le = strconv.FormatFloat(h.bounds[i], 'g', -1, 64)
			}
			buckets = append(buckets, map[string]any{"le": le, "count": n})
		}
		out[name] = map[string]any{"count": h.Count(), "sum": h.Sum(), "buckets": buckets}
	}
	r.mu.Unlock()
	return out
}

// PublishExpvar exposes the registry under the given expvar name (the
// standard /debug/vars endpoint). Publishing an already-taken name is a
// no-op rather than the expvar panic, so calling twice is safe.
func (r *Registry) PublishExpvar(name string) {
	if r == nil || expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}
