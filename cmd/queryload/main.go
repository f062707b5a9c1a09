// Command queryload drives a live-appending queryd with thousands of
// concurrent clients and reports tail latency, cache effectiveness, and
// the generation proof (a read after an acknowledged append observes
// the appended rows).
//
// By default it self-hosts: it opens the trace, mounts the serve
// handler on a loopback listener, and hammers it over real HTTP — one
// process, no setup. Point -url at an external queryd to load that
// instead.
//
// -obs-compare measures the cost of the observability layer itself: it
// runs the same load twice against two self-hosted servers — flight
// recorder and slow log off, then on — and reports the throughput and
// latency deltas, so a tracing regression shows up as a number instead
// of a hunch.
//
// Example:
//
//	queryload -trace traces/frontier.colstore -clients 1000 -duration 15s \
//	  -json BENCH_serve.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"slurmsight/internal/obs"
	"slurmsight/internal/sacct"
	"slurmsight/internal/serve"
	"slurmsight/internal/slurm"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("queryload: ")

	var (
		trace    = flag.String("trace", "", "trace to self-host (ignored with -url)")
		url      = flag.String("url", "", "external queryd base URL (empty self-hosts -trace)")
		clients  = flag.Int("clients", 1000, "concurrent query clients")
		duration = flag.Duration("duration", 10*time.Second, "load duration")
		limit    = flag.Int("limit", 200, "row cap per query")
		figures  = flag.Bool("figures", false, "mix figure requests into the load")

		appendEvery = flag.Duration("append-every", time.Second, "live-append cadence (0 disables)")
		appendRows  = flag.Int("append-rows", 200, "rows per live append")

		rate      = flag.Float64("rate", 0, "self-hosted per-client throttle (0 disables)")
		cacheN    = flag.Int("cache", 1024, "self-hosted response cache entries")
		flightRec = flag.Bool("flight-recorder", true, "self-hosted flight recorder + per-request tracing")
		compare   = flag.Bool("obs-compare", false,
			"run the load twice (tracing off, then on) against self-hosted servers and report the overhead")
		out = flag.String("json", "BENCH_serve.json", "result path (empty prints to stdout)")
	)
	flag.Parse()

	lc := loadCfg{
		clients:     *clients,
		duration:    *duration,
		limit:       *limit,
		figures:     *figures,
		appendEvery: *appendEvery,
		appendRows:  *appendRows,
	}

	if *compare {
		if *trace == "" {
			log.Fatal("-obs-compare needs -trace (it self-hosts both phases)")
		}
		runCompare(*trace, *rate, *cacheN, lc, *out)
		return
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base := *url
	if base == "" {
		if *trace == "" {
			log.Fatal("need -trace (to self-host) or -url (external queryd)")
		}
		st := openWarm(*trace)
		defer st.Close()
		b, err := selfHost(ctx, st, *rate, *cacheN, *flightRec)
		if err != nil {
			log.Fatal(err)
		}
		base = b
		log.Printf("self-hosting %s (%d rows) on %s", *trace, st.Len(), base)
	}

	client := newLoadClient(*clients)
	result, sum := drive(client, base, lc)
	writeResult(result, *out)
	log.Printf("%d requests (%.0f/s), p50 %.1fms p99 %.1fms, cache hit rate %.2f, %d throttled, %d errors",
		sum.requests, sum.qps, sum.p50, sum.p99, sum.hitRate, sum.throttled, sum.errors)
	if sum.errors > 0 {
		os.Exit(1)
	}
}

// runCompare drives the identical load against two self-hosted servers
// over the same warmed store — observability off, then on — and writes
// one result (the instrumented phase, in the usual schema) whose
// obs_overhead section carries the baseline and the deltas. The live
// appender runs in both phases, so the comparison covers the
// invalidation churn a real queryd sees.
func runCompare(trace string, rate float64, cacheN int, lc loadCfg, out string) {
	st := openWarm(trace)
	defer st.Close()
	client := newLoadClient(lc.clients)

	phase := func(instrumented bool) (map[string]any, summary) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		base, err := selfHost(ctx, st, rate, cacheN, instrumented)
		if err != nil {
			log.Fatal(err)
		}
		mode := "baseline (tracing off)"
		if instrumented {
			mode = "instrumented (tracing on)"
		}
		log.Printf("phase %s on %s", mode, base)
		return drive(client, base, lc)
	}

	baseRes, baseSum := phase(false)
	instRes, instSum := phase(true)

	// Overhead as the instrumented slowdown in percent: positive means
	// tracing costs something, negative means noise won the round.
	pct := func(instrumented, baseline float64) float64 {
		if baseline == 0 {
			return 0
		}
		return round2((instrumented - baseline) / baseline * 100)
	}
	qpsLoss := 0.0
	if baseSum.qps > 0 {
		qpsLoss = round2((1 - instSum.qps/baseSum.qps) * 100)
	}
	result := instRes
	result["obs_overhead"] = map[string]any{
		"baseline":         baseRes,
		"qps_baseline":     round2(baseSum.qps),
		"qps_instrumented": round2(instSum.qps),
		"qps_loss_pct":     qpsLoss,
		"p50_overhead_pct": pct(instSum.p50, baseSum.p50),
		"p99_overhead_pct": pct(instSum.p99, baseSum.p99),
	}
	writeResult(result, out)
	log.Printf("overhead: qps %.0f -> %.0f (%.2f%% loss), p50 %.3fms -> %.3fms (%+.2f%%), p99 %.3fms -> %.3fms (%+.2f%%)",
		baseSum.qps, instSum.qps, (1-instSum.qps/baseSum.qps)*100,
		baseSum.p50, instSum.p50, pct(instSum.p50, baseSum.p50),
		baseSum.p99, instSum.p99, pct(instSum.p99, baseSum.p99))
	if baseSum.errors+instSum.errors > 0 {
		os.Exit(1)
	}
}

// openWarm opens a trace and materialises every shard so measurements
// exercise serving, not first-touch decodes — an always-on queryd pays
// that once at boot.
func openWarm(trace string) *sacct.Store {
	st, _, err := sacct.OpenFile(trace)
	if err != nil {
		log.Fatal(err)
	}
	tWarm := time.Now()
	if err := st.Warm(); err != nil {
		log.Fatal(err)
	}
	log.Printf("warmed %d rows in %s", st.Len(), time.Since(tWarm).Round(time.Millisecond))
	return st
}

// selfHost mounts a serve.Server over st on a loopback listener and
// returns its base URL. instrumented toggles the whole tracing layer:
// flight recorder plus a slow log swallowed by io.Discard, so the
// measured cost is the instrumentation, not terminal I/O.
func selfHost(ctx context.Context, st *sacct.Store, rate float64, cacheN int, instrumented bool) (string, error) {
	cfg := serve.Config{
		Store:        st,
		System:       "bench",
		Metrics:      obs.NewRegistry(),
		RatePerSec:   rate,
		CacheEntries: cacheN,
	}
	if instrumented {
		cfg.SlowThreshold = 250 * time.Millisecond
		cfg.Log = slog.New(slog.NewJSONHandler(io.Discard, nil))
	} else {
		cfg.FlightRing = -1
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	httpServer := &http.Server{Handler: srv.Handler()}
	go serve.Drain(ctx, httpServer, ln, 5*time.Second, nil)
	return "http://" + ln.Addr().String(), nil
}

func newLoadClient(clients int) *http.Client {
	transport := &http.Transport{
		MaxIdleConns:        4 * clients,
		MaxIdleConnsPerHost: 4 * clients,
	}
	return &http.Client{Transport: transport, Timeout: 60 * time.Second}
}

// loadCfg is one load phase: how many clients, for how long, against
// what request mix.
type loadCfg struct {
	clients, limit int
	duration       time.Duration
	figures        bool
	appendEvery    time.Duration
	appendRows     int
}

// summary is the phase digest used for logging and overhead math.
type summary struct {
	requests  int64
	qps       float64
	p50, p99  float64
	hitRate   float64
	throttled int64
	errors    int64
}

// drive runs one load phase against base and returns the full result
// map (the BENCH_serve.json shape) plus its digest.
func drive(client *http.Client, base string, lc loadCfg) (map[string]any, summary) {
	health, err := fetchHealth(client, base)
	if err != nil {
		log.Fatalf("healthz: %v", err)
	}
	months := queryMonths(client, base)
	log.Printf("target holds %.0f rows, generation %.0f; driving %d clients for %s",
		health["rows"], health["generation"], lc.clients, lc.duration)

	reg := obs.NewRegistry()
	latHist := reg.Histogram("queryload_request_seconds", obs.LatencyBuckets)

	var (
		requests, errors429, errorsOther atomic.Int64
		samplesMu                        sync.Mutex
		samples                          []float64
	)
	deadline := time.Now().Add(lc.duration)
	var wg sync.WaitGroup
	for i := 0; i < lc.clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			local := make([]float64, 0, 1024)
			for iter := 0; time.Now().Before(deadline); iter++ {
				u := pickQuery(base, id, iter, months, lc.limit, lc.figures)
				t0 := time.Now()
				status, err := get(client, u, "c"+strconv.Itoa(id))
				dt := time.Since(t0)
				requests.Add(1)
				latHist.Observe(dt.Seconds())
				local = append(local, dt.Seconds()*1000)
				switch {
				case err != nil:
					errorsOther.Add(1)
				case status == http.StatusTooManyRequests:
					errors429.Add(1)
				case status != http.StatusOK:
					errorsOther.Add(1)
				}
			}
			samplesMu.Lock()
			samples = append(samples, local...)
			samplesMu.Unlock()
		}(i)
	}

	// The appender makes the store live while the clients read: each
	// batch lands in a synthetic future month, and after every
	// acknowledged append a window query over that month must show
	// all rows appended so far — the generation proof.
	app := &appender{client: client, base: base, rows: lc.appendRows}
	if lc.appendEvery > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			app.run(deadline, lc.appendEvery)
		}()
	}
	t0 := time.Now()
	wg.Wait()
	elapsed := time.Since(t0)

	sort.Float64s(samples)
	metricsText, _ := getBody(client, base+"/metrics")
	cache := parseCache(metricsText)
	result := map[string]any{
		"target":     base,
		"clients":    lc.clients,
		"duration_s": round2(elapsed.Seconds()),
		"requests":   requests.Load(),
		"qps":        round2(float64(requests.Load()) / elapsed.Seconds()),
		"throttled":  errors429.Load(),
		"errors":     errorsOther.Load(),
		"store": map[string]any{
			"rows_start": health["rows"],
			"months":     health["months"],
		},
		"latency_ms": map[string]any{
			"p50": round2(percentile(samples, 50)),
			"p90": round2(percentile(samples, 90)),
			"p99": round2(percentile(samples, 99)),
			"max": round2(percentile(samples, 100)),
		},
		"cache": cache,
		"appends": map[string]any{
			"batches":          app.batches.Load(),
			"rows":             app.rowsSent.Load(),
			"generation_start": app.genStart.Load(),
			"generation_end":   app.genEnd.Load(),
		},
		"generation_proof": app.batches.Load() > 0 && app.proofFailures.Load() == 0,
		"client_metrics":   reg.Snapshot(),
	}
	if app.proofFailures.Load() > 0 {
		log.Printf("WARNING: %d generation-proof failures (appended rows not visible to a follow-up query)",
			app.proofFailures.Load())
	}
	return result, summary{
		requests:  requests.Load(),
		qps:       float64(requests.Load()) / elapsed.Seconds(),
		p50:       percentile(samples, 50),
		p99:       percentile(samples, 99),
		hitRate:   cache["hit_rate"].(float64),
		throttled: errors429.Load(),
		errors:    errorsOther.Load(),
	}
}

func writeResult(result map[string]any, out string) {
	blob, err := json.MarshalIndent(result, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	blob = append(blob, '\n')
	if out == "" {
		os.Stdout.Write(blob)
		return
	}
	if err := os.WriteFile(out, blob, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", out)
}

// pickQuery spreads clients across a realistic mix: repeated canonical
// queries (cache-friendly), month windows, windowed user filters, and
// optionally figures. The distinct-key population is deliberately
// bounded (tens of keys per generation) — the cache and single-flight
// layer is what an always-on service lives or dies by.
func pickQuery(base string, id, iter int, months []string, limit int, figures bool) string {
	lim := strconv.Itoa(limit)
	mix := (id + iter) % 16
	win := ""
	if len(months) > 0 {
		win = "&start=" + months[(id+iter)%len(months)]
	}
	switch {
	case figures && mix == 15:
		keys := []string{"fig1-volume", "fig4-wait-times", "fig5-states-per-user"}
		return base + "/figures/" + keys[(id+iter)%len(keys)] + ".json"
	case mix < 8: // hot canonical queries
		return base + "/query?fields=JobID,User,State&limit=" + lim
	case mix < 12: // month windows
		return base + "/query?fields=JobID,Submit,NNodes&limit=" + lim + win
	default: // windowed user filter over the trace's real user pool
		user := fmt.Sprintf("u%04d", (id+iter)%16)
		return base + "/query?fields=JobID,User&user=" + user + "&limit=" + lim + win
	}
}

// appender POSTs pipe-text batches into a synthetic future month and
// verifies each acknowledged append is visible to a follow-up query.
type appender struct {
	client *http.Client
	base   string
	rows   int

	batches, rowsSent, genStart, genEnd, proofFailures atomic.Int64
	cursor                                             time.Time
}

func (a *appender) run(deadline time.Time, every time.Duration) {
	// Far past any generated trace, so the proof window holds only
	// appended rows.
	a.cursor = time.Date(2031, 1, 1, 0, 0, 0, 0, time.UTC)
	windowStart := a.cursor
	fields := []string{"JobID", "User", "Account", "Partition", "Submit", "Start", "End", "Elapsed", "State", "NNodes", "NCPUs"}
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for job := int64(9_000_000); time.Now().Before(deadline); {
		var sb strings.Builder
		sb.WriteString(slurm.Header(fields))
		sb.WriteByte('\n')
		for i := 0; i < a.rows; i++ {
			r := slurm.Record{
				ID:        slurm.NewJobID(job),
				User:      "appender",
				Account:   "bench",
				Partition: "batch",
				Submit:    a.cursor,
				Start:     a.cursor.Add(time.Minute),
				End:       a.cursor.Add(11 * time.Minute),
				Elapsed:   10 * time.Minute,
				State:     slurm.StateCompleted,
				NNodes:    1,
				NCPUs:     8,
			}
			job++
			a.cursor = a.cursor.Add(time.Second)
			line, err := slurm.EncodeRecord(&r, fields)
			if err != nil {
				log.Printf("append encode: %v", err)
				return
			}
			sb.WriteString(line)
			sb.WriteByte('\n')
		}
		resp, err := a.client.Post(a.base+"/ingest", "text/plain", strings.NewReader(sb.String()))
		if err != nil {
			log.Printf("append: %v", err)
			return
		}
		var ack struct {
			Rows       int    `json:"rows"`
			Generation uint64 `json:"generation"`
		}
		err = json.NewDecoder(resp.Body).Decode(&ack)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			log.Printf("append: status %d err %v", resp.StatusCode, err)
			return
		}
		if a.genStart.Load() == 0 {
			a.genStart.Store(int64(ack.Generation))
		}
		a.genEnd.Store(int64(ack.Generation))
		a.batches.Add(1)
		a.rowsSent.Add(int64(ack.Rows))

		// Generation proof: the acknowledged rows must be visible now.
		u := a.base + "/query?fields=JobID&steps=1&start=" + windowStart.Format("2006-01-02") +
			"&limit=" + strconv.Itoa(int(a.rowsSent.Load())+1)
		seen, gen := a.countRows(u)
		if seen < a.rowsSent.Load() || gen < uint64(ack.Generation) {
			a.proofFailures.Add(1)
			log.Printf("generation proof FAILED: appended %d rows through generation %d, query at generation %d saw %d",
				a.rowsSent.Load(), ack.Generation, gen, seen)
		}
		select {
		case <-ticker.C:
		default:
			time.Sleep(every)
		}
	}
}

func (a *appender) countRows(u string) (int64, uint64) {
	resp, err := a.client.Get(u)
	if err != nil {
		return -1, 0
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	rows, _ := strconv.ParseInt(resp.Header.Get("X-Rows"), 10, 64)
	gen, _ := strconv.ParseUint(resp.Header.Get("X-Store-Generation"), 10, 64)
	return rows, gen
}

func get(client *http.Client, u, apiKey string) (int, error) {
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return 0, err
	}
	req.Header.Set("X-API-Key", apiKey)
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

func getBody(client *http.Client, u string) (string, error) {
	resp, err := client.Get(u)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

func fetchHealth(client *http.Client, base string) (map[string]float64, error) {
	body, err := getBody(client, base+"/healthz")
	if err != nil {
		return nil, err
	}
	var raw map[string]any
	if err := json.Unmarshal([]byte(body), &raw); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

// queryMonths derives month window starts from a cheap one-row-per-month
// probe: it reads the store's first and last submit through a full-range
// query of Submit only, then enumerates months between. Failure just
// means the month mix is skipped.
func queryMonths(client *http.Client, base string) []string {
	body, err := getBody(client, base+"/query?fields=Submit&limit=1")
	if err != nil {
		return nil
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) < 2 {
		return nil
	}
	first, err := time.Parse("2006-01-02T15:04:05", strings.TrimSpace(lines[1]))
	if err != nil {
		return nil
	}
	var out []string
	for m, i := first, 0; i < 12; m, i = m.AddDate(0, 1, 0), i+1 {
		out = append(out, m.Format("2006-01"))
	}
	return out
}

// parseCache pulls the serve_cache_* counters out of Prometheus text.
func parseCache(metrics string) map[string]any {
	vals := map[string]float64{}
	for _, line := range strings.Split(metrics, "\n") {
		f := strings.Fields(line)
		if len(f) == 2 && strings.HasPrefix(f[0], "serve_cache_") {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				vals[strings.TrimPrefix(f[0], "serve_cache_")] = v
			}
		}
	}
	total := vals["hits_total"] + vals["misses_total"] + vals["coalesced_total"]
	rate := 0.0
	if total > 0 {
		rate = (vals["hits_total"] + vals["coalesced_total"]) / total
	}
	return map[string]any{
		"hits":      vals["hits_total"],
		"misses":    vals["misses_total"],
		"coalesced": vals["coalesced_total"],
		"evictions": vals["evictions_total"],
		"hit_rate":  round2(rate),
	}
}

func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

func round2(f float64) float64 { return math.Round(f*100) / 100 }
