// Command queryload is the serving plane's tracing-overhead gate. It
// drives the same load over real HTTP against a self-hosted queryd with
// the flight recorder and slow log off (the baseline) and on (the
// instrumented phase), and reports the throughput and latency deltas, so
// a tracing regression shows up as a number instead of a hunch; CI fails
// the build when the instrumented phase loses more than 5 % throughput.
//
// -duration is each side's share of the run, cut into four alternating
// pairs of phases: the baseline goes first in the first and third pair,
// the instrumented phase in the second and fourth, so neither side always
// meets a process the other has just warmed. Every phase opens and warms
// its own store from -trace, so no phase serves rows another appended.
// The reported loss is the median of the four pairs' losses.
//
// Each phase is a closed loop of query clients over a fixed 16-way mix,
// beside a live appender that posts a 200-row batch every second and
// then checks that the batch is visible to a query.
//
// Example:
//
//	queryload -trace traces/frontier.colstore -clients 200 -duration 5s \
//	  -json overhead.json
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

// The load each phase drives: the row cap of every query, and the
// appender's cadence and batch size; and the number of alternating
// baseline/instrumented pairs -duration is cut into.
const (
	queryLimit  = 200
	appendEvery = time.Second
	appendRows  = 200
	pairs       = 4
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("queryload: ")

	var (
		trace    = flag.String("trace", "", "trace both phases serve (required)")
		clients  = flag.Int("clients", 1000, "concurrent query clients")
		duration = flag.Duration("duration", 10*time.Second, "length of each phase")
		out      = flag.String("json", "", "result path (empty prints to stdout)")
	)
	flag.Parse()
	if *trace == "" {
		log.Fatal("need -trace (every phase self-hosts it)")
	}

	client := &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
		MaxIdleConns:        4 * *clients,
		MaxIdleConnsPerHost: 4 * *clients,
	}}
	phase := *duration / pairs
	var base, inst []summary
	losses := make([]float64, pairs)
	for p := range pairs {
		var b, i summary
		if p%2 == 0 {
			b = drive(client, *trace, false, *clients, phase)
			i = drive(client, *trace, true, *clients, phase)
		} else {
			i = drive(client, *trace, true, *clients, phase)
			b = drive(client, *trace, false, *clients, phase)
		}
		base, inst = append(base, b), append(inst, i)
		losses[p] = loss(i.qps, b.qps)
	}
	qpsLoss := round2(median(losses))
	for p := range losses {
		losses[p] = round2(losses[p])
	}
	b, i := pool(base), pool(inst)

	// Overhead as the instrumented slowdown in percent: positive means
	// tracing costs something, negative means noise won the round.
	pct := func(instrumented, baseline float64) float64 {
		if baseline == 0 {
			return 0
		}
		return round2((instrumented - baseline) / baseline * 100)
	}
	blob, err := json.MarshalIndent(map[string]any{
		"obs_overhead": map[string]any{
			"qps_baseline":     round2(b.qps),
			"qps_instrumented": round2(i.qps),
			"qps_loss_pct":     qpsLoss,
			"pair_loss_pct":    losses,
			"p50_overhead_pct": pct(i.p50, b.p50),
			"p99_overhead_pct": pct(i.p99, b.p99),
		},
	}, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	blob = append(blob, '\n')
	if *out == "" {
		os.Stdout.Write(blob)
	} else if err := os.WriteFile(*out, blob, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("overhead: qps %.0f -> %.0f (median pair loss %.2f%%, pairs %v), p50 %.3fms -> %.3fms (%+.2f%%), p99 %.3fms -> %.3fms (%+.2f%%)",
		b.qps, i.qps, qpsLoss, losses,
		b.p50, i.p50, pct(i.p50, b.p50),
		b.p99, i.p99, pct(i.p99, b.p99))
	if n := b.errors + i.errors; n > 0 {
		log.Fatalf("%d requests failed", n)
	}
}

// loss is the instrumented phase's throughput loss against the
// baseline's, in percent.
func loss(instrumented, baseline float64) float64 {
	if baseline == 0 {
		return 0
	}
	return (1 - instrumented/baseline) * 100
}

// median of a few values (the mean of the middle two when even).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// summary is one phase's digest: throughput, latency percentiles in
// milliseconds, and the requests that did not answer 200; pool adds the
// phases of one side up.
type summary struct {
	requests int64
	elapsed  time.Duration
	samples  []float64 // sorted latencies, ms
	qps      float64
	p50, p99 float64
	errors   int64
}

func summarize(requests, errors int64, elapsed time.Duration, samples []float64) summary {
	sort.Float64s(samples)
	return summary{
		requests: requests,
		elapsed:  elapsed,
		samples:  samples,
		qps:      float64(requests) / elapsed.Seconds(),
		p50:      percentile(samples, 50),
		p99:      percentile(samples, 99),
		errors:   errors,
	}
}

func pool(phases []summary) summary {
	var requests, errors int64
	var elapsed time.Duration
	var samples []float64
	for _, p := range phases {
		requests, errors, elapsed = requests+p.requests, errors+p.errors, elapsed+p.elapsed
		samples = append(samples, p.samples...)
	}
	return summarize(requests, errors, elapsed, samples)
}

// drive runs one phase: it opens and warms the trace — so the phase
// measures serving rather than first-touch decodes, as an always-on
// queryd pays those at boot, and serves none of another phase's appends —
// mounts a serve.Server over it on a loopback listener, then runs
// closed-loop query clients and the live appender against it until the
// same deadline. The server keeps serve's defaults (no throttle, 1,024
// cache entries); instrumented toggles the whole tracing layer: flight
// recorder plus a slow log swallowed by io.Discard, so the measured cost
// is the instrumentation, not terminal I/O.
func drive(client *http.Client, trace string, instrumented bool, clients int, duration time.Duration) summary {
	st, _, err := sacct.OpenFile(trace)
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()
	tWarm := time.Now()
	if err := st.Warm(); err != nil {
		log.Fatal(err)
	}
	warmed := time.Since(tWarm).Round(time.Millisecond)

	cfg := serve.Config{Store: st, System: "bench", Metrics: obs.NewRegistry()}
	mode := "baseline (tracing off)"
	if instrumented {
		mode = "instrumented (tracing on)"
		cfg.SlowThreshold = 250 * time.Millisecond
		cfg.Log = slog.New(slog.NewJSONHandler(io.Discard, nil))
	} else {
		cfg.FlightRing = -1
	}
	srv, err := serve.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	drained := make(chan struct{})
	go func() {
		serve.Drain(ctx, &http.Server{Handler: srv.Handler()}, ln, 5*time.Second, nil)
		close(drained)
	}()
	defer func() {
		// Idle connections first: the drain waits on a connection the
		// transport opened but never sent a request on.
		client.CloseIdleConnections()
		cancel()
		<-drained
	}()
	base := "http://" + ln.Addr().String()
	months := queryMonths(client, base)
	log.Printf("phase %s on %s: %d rows warmed in %s, %d clients for %s", mode, base, st.Len(), warmed, clients, duration)

	var (
		requests, errors atomic.Int64
		samplesMu        sync.Mutex
		samples          []float64
	)
	deadline := time.Now().Add(duration)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			local := make([]float64, 0, 1024)
			for iter := 0; time.Now().Before(deadline); iter++ {
				u := pickQuery(base, id, iter, months)
				t0 := time.Now()
				status, _, err := get(client, u)
				dt := time.Since(t0)
				requests.Add(1)
				local = append(local, dt.Seconds()*1000)
				if err != nil || status != http.StatusOK {
					errors.Add(1)
				}
			}
			samplesMu.Lock()
			samples = append(samples, local...)
			samplesMu.Unlock()
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		appendLoop(client, base, deadline)
	}()
	t0 := time.Now()
	wg.Wait()
	return summarize(requests.Load(), errors.Load(), time.Since(t0), samples)
}

// pickQuery spreads clients across a realistic mix: repeated canonical
// queries (cache-friendly), month windows, and windowed user filters.
// The distinct-key population is deliberately bounded (tens of keys per
// generation) — the cache and single-flight layer is what an always-on
// service lives or dies by.
func pickQuery(base string, id, iter int, months []string) string {
	lim := strconv.Itoa(queryLimit)
	mix := (id + iter) % 16
	win := ""
	if len(months) > 0 {
		win = "&start=" + months[(id+iter)%len(months)]
	}
	switch {
	case mix < 8: // hot canonical queries
		return base + "/query?fields=JobID,User,State&limit=" + lim
	case mix < 12: // month windows
		return base + "/query?fields=JobID,Submit,NNodes&limit=" + lim + win
	default: // windowed user filter over the trace's real user pool
		user := fmt.Sprintf("u%04d", (id+iter)%16)
		return base + "/query?fields=JobID,User&user=" + user + "&limit=" + lim + win
	}
}

// appendLoop makes the store live while the clients read: it POSTs
// pipe-text batches into a synthetic future month until the deadline,
// and after every acknowledged append a window query over that month
// must show all rows appended so far.
func appendLoop(client *http.Client, base string, deadline time.Time) {
	// Far past any generated trace, so the window holds only appended
	// rows.
	cursor := time.Date(2031, 1, 1, 0, 0, 0, 0, time.UTC)
	windowStart := cursor
	var rowsSent int64
	fields := []string{"JobID", "User", "Account", "Partition", "Submit", "Start", "End", "Elapsed", "State", "NNodes", "NCPUs"}
	ticker := time.NewTicker(appendEvery)
	defer ticker.Stop()
	for job := int64(9_000_000); time.Now().Before(deadline); {
		var sb strings.Builder
		sb.WriteString(slurm.Header(fields))
		sb.WriteByte('\n')
		for i := 0; i < appendRows; i++ {
			r := slurm.Record{
				ID:        slurm.NewJobID(job),
				User:      "appender",
				Account:   "bench",
				Partition: "batch",
				Submit:    cursor,
				Start:     cursor.Add(time.Minute),
				End:       cursor.Add(11 * time.Minute),
				Elapsed:   10 * time.Minute,
				State:     slurm.StateCompleted,
				NNodes:    1,
				NCPUs:     8,
			}
			job++
			cursor = cursor.Add(time.Second)
			line, err := slurm.EncodeRecord(&r, fields)
			if err != nil {
				log.Printf("append encode: %v", err)
				return
			}
			sb.WriteString(line)
			sb.WriteByte('\n')
		}
		resp, err := client.Post(base+"/ingest", "text/plain", strings.NewReader(sb.String()))
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
		rowsSent += int64(ack.Rows)

		u := base + "/query?fields=JobID&steps=1&start=" + windowStart.Format("2006-01-02") +
			"&limit=" + strconv.Itoa(int(rowsSent)+1)
		_, h, err := get(client, u)
		seen, gen := int64(-1), uint64(0)
		if err == nil {
			seen, _ = strconv.ParseInt(h.Get("X-Rows"), 10, 64)
			gen, _ = strconv.ParseUint(h.Get("X-Store-Generation"), 10, 64)
		}
		if seen < rowsSent || gen < ack.Generation {
			log.Printf("WARNING: appended %d rows through generation %d, query at generation %d saw %d",
				rowsSent, ack.Generation, gen, seen)
		}
		select {
		case <-ticker.C:
		default:
			time.Sleep(appendEvery)
		}
	}
}

// get fetches u and discards the body, returning the status and headers.
func get(client *http.Client, u string) (int, http.Header, error) {
	resp, err := client.Get(u)
	if err != nil {
		return 0, nil, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header, err
}

// queryMonths names twelve month window starts, beginning with the
// month of the store's first submit, which it reads through a one-row
// query of Submit. Failure just means the month mix is skipped.
func queryMonths(client *http.Client, base string) []string {
	resp, err := client.Get(base + "/query?fields=Submit&limit=1")
	if err != nil {
		return nil
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
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

// percentile reads the p-th percentile (0 < p < 100) of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(int(math.Ceil(p/100*float64(len(sorted))))-1, 0)]
}

func round2(f float64) float64 { return math.Round(f*100) / 100 }
