package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"slurmsight/internal/analyze"
	"slurmsight/internal/core"
	"slurmsight/internal/obs"
	"slurmsight/internal/sacct"
	"slurmsight/internal/serve"
	"slurmsight/internal/slurm"
)

// The serve workloads run queryd as shipped — serve.New defaults,
// flight recorder on, throttle off, a 256-entry response cache — over a
// warmed flow6m on a loopback listener, in this process. Every client
// is a closed loop: a dashboard poller or a tailer waits for its reply.

const (
	queryLimit   = 200
	cacheEntries = 256
	coldFigure   = core.FigWaitTimes
)

func figureKeys() []string { return append(core.FigureKeys(), core.ExtendedFigureKeys()...) }

// queryd is one self-hosted server.
type queryd struct {
	store  *sacct.Store
	srv    *serve.Server
	h      http.Handler
	http   *http.Server
	base   string
	client *http.Client
	served chan error
}

func newServer(fx *fixture, warm bool) (*sacct.Store, *serve.Server, error) {
	store, err := sacct.OpenBinary(fx.path)
	if err != nil {
		return nil, nil, err
	}
	if warm {
		if err := store.Warm(); err != nil {
			store.Close()
			return nil, nil, err
		}
	}
	srv, err := serve.New(serve.Config{Store: store, System: fx.system.Name, CacheEntries: cacheEntries})
	if err != nil {
		store.Close()
		return nil, nil, err
	}
	return store, srv, nil
}

// startQueryd opens and warms the fixture and serves it on loopback
// with one keep-alive connection per client.
func startQueryd(fx *fixture, clients int) (*queryd, error) {
	store, srv, err := newServer(fx, true)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		store.Close()
		return nil, err
	}
	q := &queryd{
		store: store, srv: srv, h: srv.Handler(),
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns: clients, MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients,
		}},
	}
	q.http = &http.Server{Handler: q.h, ReadHeaderTimeout: 10 * time.Second}
	go func() { q.served <- q.http.Serve(ln) }()
	return q, nil
}

func (q *queryd) stop() {
	q.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	q.http.Shutdown(ctx)
	<-q.served
	q.store.Close()
}

// reply is what the checks read from one response.
type reply struct {
	status int
	gen    uint64
	cache  string
	body   []byte // valid until the next call with the same buffer
}

func (q *queryd) get(url string, buf *bytes.Buffer) (reply, error) {
	resp, err := q.client.Get(q.base + url)
	if err != nil {
		return reply{}, err
	}
	return readReply(resp, buf)
}

func (q *queryd) post(url string, body []byte, buf *bytes.Buffer) (reply, error) {
	resp, err := q.client.Post(q.base+url, "text/plain", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	return readReply(resp, buf)
}

func readReply(resp *http.Response, buf *bytes.Buffer) (reply, error) {
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return reply{}, err
	}
	gen, _ := strconv.ParseUint(resp.Header.Get("X-Store-Generation"), 10, 64)
	return reply{status: resp.StatusCode, gen: gen, cache: resp.Header.Get("X-Cache"), body: buf.Bytes()}, nil
}

// direct serves one request on the handler without a socket.
func direct(h http.Handler, method, url string, body []byte) *httptest.ResponseRecorder {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, url, rd)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// coldOnce measures the serve workloads' cold_s: process-fresh store
// and server, nothing warmed, to the first complete figure — what a
// dashboard user waits for after queryd starts. It records the median
// over coldReps and whether every body matched want.
func (e *env) coldOnce(want uint64) error {
	if e.coldS != 0 {
		return nil // a traced run's second session
	}
	e.digests["serve.figure."+coldFigure] = hex64(want)
	if e.cfg.tamper {
		want++
	}
	var walls []float64
	for r := 0; r < e.sz.coldReps; r++ {
		// A collected heap, as a fresh process has: otherwise whether a
		// GC cycle lands inside the repetition is the previous one's
		// leftovers' business, and the reps swing 0.24–0.47 s.
		runtime.GC()
		sp := e.root.Child("cold")
		t0 := time.Now()
		store, srv, err := newServer(e.flow, false)
		if err != nil {
			sp.End()
			return err
		}
		w := direct(srv.Handler(), "GET", "/figures/"+coldFigure+".json", nil)
		walls = append(walls, time.Since(t0).Seconds())
		sp.End()
		if w.Code != http.StatusOK || digest(w.Body.Bytes()) != want {
			e.coldFailed = true
		}
		store.Close()
	}
	e.coldS = median(walls)
	return nil
}

// figureReference renders every figure straight from the store, the
// way the server should: one bundle over a full scan, then
// ChartFromBundle with serve.New's defaults (15 users, no capacity).
func figureReference(store *sacct.Store, system string) (map[string]uint64, error) {
	b, err := analyze.Collect(store.Scan(sacct.Query{IncludeSteps: true}), core.TimelineBucket)
	if err != nil {
		return nil, err
	}
	out := map[string]uint64{}
	for _, key := range figureKeys() {
		chart, err := core.ChartFromBundle(key, system, b, 15, 0)
		if err != nil {
			return nil, err
		}
		body, err := chart.JSON()
		if err != nil {
			return nil, err
		}
		out[key] = digest(body)
	}
	return out, nil
}

// ---- serve-read ----

// readKey is one distinct request of the read mix.
type readKey struct {
	url   string
	query sacct.Query // what the URL asks the store for; zero for figures
	fig   string
}

var projections = [][]string{
	{"JobID", "User", "State"},
	{"JobID", "Submit", "NNodes"},
	{"JobID", "User", "Account", "Partition"},
	{"JobID", "Start", "End", "Elapsed"},
	{"JobID", "State", "ExitCode"},
	{"JobID", "NNodes", "NCPUs", "Timelimit"},
	{"JobID", "User", "Submit", "Start"},
	{"JobID", "JobName", "State", "Elapsed"},
}

const (
	hotKeys      = 32
	distinctKeys = 4096
	timeParam    = "2006-01-02T15:04:05"
)

var filterStates = []string{"COMPLETED", "FAILED", "TIMEOUT", "CANCELLED"}

func queryKey(q sacct.Query) readKey {
	var sb strings.Builder
	sb.WriteString("/query?fields=")
	sb.WriteString(strings.Join(q.Fields, ","))
	if !q.Start.IsZero() {
		sb.WriteString("&start=" + q.Start.Format(timeParam))
	}
	if !q.End.IsZero() {
		sb.WriteString("&end=" + q.End.Format(timeParam))
	}
	if q.User != "" {
		sb.WriteString("&user=" + q.User)
	}
	if q.State != "" {
		sb.WriteString("&state=" + q.State)
	}
	sb.WriteString("&limit=" + strconv.Itoa(queryLimit))
	return readKey{url: sb.String(), query: q}
}

// readKeys lays out the key space: [0,32) hot month/projection pairs,
// then 4,096 two-day windows (8 h apart) × projection, then user/state
// filters over a month, then the figures.
func readKeys(sz *sizes, fx *fixture) (keys []readKey, filterAt, figAt int) {
	months := sz.flowMonths()
	for i := 0; i < hotKeys; i++ {
		m := months[(i/len(projections))%len(months)]
		keys = append(keys, queryKey(sacct.Query{Fields: projections[i%len(projections)], Start: m.Start(), End: m.Next().Start()}))
	}
	starts := distinctKeys / len(projections)
	for i := 0; i < distinctKeys; i++ {
		start := sz.flowStart.Add(time.Duration(i%starts) * 8 * time.Hour)
		keys = append(keys, queryKey(sacct.Query{
			Fields: projections[i/starts], Start: start, End: start.Add(48 * time.Hour),
		}))
	}
	filterAt = len(keys)
	for _, u := range fx.users {
		for _, st := range filterStates {
			for _, m := range months {
				keys = append(keys, queryKey(sacct.Query{
					Fields: []string{"JobID", "User", "State", "Elapsed"},
					Start:  m.Start(), End: m.Next().Start(), User: u, State: st,
				}))
			}
		}
	}
	figAt = len(keys)
	for _, k := range figureKeys() {
		keys = append(keys, readKey{url: "/figures/" + k + ".json", fig: k})
	}
	return keys, filterAt, figAt
}

// readSchedule draws each client's request sequence from the seed: 50 %
// hot, 30 % from the 4,096 distinct windows (more than the cache holds,
// so they evict and miss), 10 % user/state filters, 10 % figures.
func readSchedule(sz *sizes, seed int64, nkeys, filterAt, figAt int) [][]int32 {
	out := make([][]int32, sz.readClients)
	for c := range out {
		rng := rand.New(rand.NewSource(seed*1000003 + int64(c)))
		n := sz.readRequests / sz.readClients
		seq := make([]int32, n)
		for i := range seq {
			switch p := rng.Float64(); {
			case p < 0.5:
				seq[i] = int32(rng.Intn(hotKeys))
			case p < 0.8:
				seq[i] = int32(hotKeys + rng.Intn(distinctKeys))
			case p < 0.9:
				seq[i] = int32(filterAt + rng.Intn(figAt-filterAt))
			default:
				seq[i] = int32(figAt + rng.Intn(nkeys-figAt))
			}
		}
		out[c] = seq
	}
	return out
}

// scheduleDigest identifies a read mix: the key table's URLs, then each
// client's sequence of indices into it.
func scheduleDigest(keys []readKey, schedule [][]int32) uint64 {
	d := newDigester()
	for i := range keys {
		d.part([]byte(keys[i].url))
	}
	for _, seq := range schedule {
		d.prefix(int64(len(seq)))
		for _, k := range seq {
			d.prefix(int64(k))
		}
	}
	return d.sum()
}

type readSession struct {
	env      *env
	q        *queryd
	keys     []readKey
	schedule [][]int32
}

// readReference is the expected body digest of every key the schedule
// asks for, none of it taken from the server: queries straight from
// Store.WriteN, figures from figureReference. 0 marks a key the schedule
// never draws.
func readReference(store *sacct.Store, figs map[string]uint64, keys []readKey, schedule [][]int32) ([]uint64, error) {
	want := make([]uint64, len(keys))
	var buf bytes.Buffer
	for _, seq := range schedule {
		for _, k := range seq {
			if want[k] != 0 {
				continue
			}
			if fig := keys[k].fig; fig != "" {
				want[k] = figs[fig]
				continue
			}
			buf.Reset()
			if _, err := store.WriteN(&buf, keys[k].query, queryLimit); err != nil {
				return nil, err
			}
			want[k] = digest(buf.Bytes())
		}
	}
	return want, nil
}

func openRead(e *env) (_ session, err error) {
	q, err := startQueryd(e.flow, e.sz.readClients)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			q.stop()
		}
	}()
	s := &readSession{env: e, q: q}
	var filterAt, figAt int
	s.keys, filterAt, figAt = readKeys(e.sz, e.flow)
	s.schedule = readSchedule(e.sz, e.cfg.seed, len(s.keys), filterAt, figAt)
	e.digests["serve-read.schedule"] = hex64(scheduleDigest(s.keys, s.schedule))

	figs, err := figureReference(q.store, e.flow.system.Name)
	if err != nil {
		return nil, err
	}
	if e.readWant == nil { // a traced run's second session reuses the first's
		if e.readWant, err = readReference(q.store, figs, s.keys, s.schedule); err != nil {
			return nil, err
		}
		d := newDigester()
		for _, w := range e.readWant {
			d.prefix(int64(w))
		}
		e.digests["serve-read.bodies"] = hex64(d.sum())
		if e.cfg.tamper {
			for k := range e.readWant {
				e.readWant[k]++
			}
		}
	}
	// A dashboard's first pass, one figure at a time, before the
	// clients start: two concurrent first requests for the two timeline
	// figures race on the fresh bundle's lazy timeline sweep and one of
	// them answers 500 (README, "Defects found"). After this pass the
	// bundle is read-only for the rest of the run.
	var buf bytes.Buffer
	for k := figAt; k < len(s.keys); k++ {
		rep, err := q.get(s.keys[k].url, &buf)
		if err == nil && rep.status/100 != 2 {
			err = fmt.Errorf("status %d", rep.status)
		}
		if err != nil {
			return nil, fmt.Errorf("warming %s: %w", s.keys[k].url, err)
		}
	}
	if err = e.coldOnce(figs[coldFigure]); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *readSession) loop(parent *obs.Span) loopStats {
	perClient := make([]loopStats, len(s.schedule))
	var wg sync.WaitGroup
	for c := range s.schedule {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := &perClient[c]
			st.opMS = make([]float64, 0, len(s.schedule[c]))
			var buf bytes.Buffer
			var lastGen uint64
			sp := parent.Child("client")
			defer sp.End()
			for i, k := range s.schedule[c] {
				t0 := time.Now()
				rs := sp.Child("serve.request")
				rep, err := s.q.get(s.keys[k].url, &buf)
				rs.End()
				st.opMS = append(st.opMS, ms(time.Since(t0)))
				switch {
				case err != nil:
					st.fail("client %d request %d: %v", c, i, err)
					continue
				case rep.status/100 != 2:
					st.fail("client %d request %d: status %d for %s", c, i, rep.status, s.keys[k].url)
					continue
				case rep.gen < lastGen:
					st.fail("client %d request %d: generation went back %d → %d", c, i, lastGen, rep.gen)
					continue
				}
				lastGen = rep.gen
				if d := digest(rep.body); d != s.env.readWant[k] {
					st.fail("client %d request %d: body digest %x differs from the reference for %s", c, i, d, s.keys[k].url)
					continue
				}
				st.work++
			}
		}()
	}
	wg.Wait()
	var st loopStats
	for i := range perClient {
		p := &perClient[i]
		st.opMS = append(st.opMS, p.opMS...)
		st.work += p.work
		st.failed += p.failed
		if st.firstFail == "" {
			st.firstFail = p.firstFail
		}
	}
	st.counts = serveCounts(s.q.srv, 0)
	return st
}

func (s *readSession) verify(*loopStats) error { return nil } // every response was checked as it arrived
func (s *readSession) close()                  { s.q.stop() }

// serveCounts reads the server's own counters after a loop.
func serveCounts(srv *serve.Server, genStart uint64) map[string]int64 {
	reg := srv.Metrics()
	return map[string]int64{
		"serve.cache_hits":      reg.Counter("serve_cache_hits_total").Value(),
		"serve.cache_misses":    reg.Counter("serve_cache_misses_total").Value(),
		"serve.cache_coalesced": reg.Counter("serve_cache_coalesced_total").Value(),
		"serve.cache_evictions": reg.Counter("serve_cache_evictions_total").Value(),
		"serve.ingest_batches":  reg.Counter("serve_ingest_batches_total").Value(),
		"serve.generations":     reg.Gauge("serve_store_generation").Value() - int64(genStart),
	}
}

// ---- serve-live ----

var ingestFields = []string{"JobID", "User", "Account", "Partition", "Submit", "Start", "End", "Elapsed", "Timelimit", "State", "NNodes", "NCPUs"}

// liveRecords draws the append stream from the seed: batches of rows
// whose submit times continue past the trace end, roll into a second
// new month halfway through, and every 8th batch is late — rows inside
// the trace's third month, which forces Finalize to re-sort that shard.
func liveRecords(sz *sizes, seed int64, fx *fixture, cycles int) [][]slurm.Record {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	states := []slurm.State{slurm.StateCompleted, slurm.StateCompleted, slurm.StateCompleted, slurm.StateFailed, slurm.StateTimeout}
	first := sacct.MonthOf(fx.end)
	lateMonth := sz.thirdMonth()
	lateSpan := int64(lateMonth.Next().Start().Sub(lateMonth.Start()) / time.Second)
	job := int64(9_000_000)
	out := make([][]slurm.Record, cycles)
	for c := range out {
		month, slot := first, c
		if c >= cycles/2 {
			month, slot = first.Next(), c-cycles/2
		}
		cursor := month.Start().Add(time.Duration(slot) * 5 * time.Hour)
		for i := 0; i < sz.liveBatchRows; i++ {
			submit := cursor.Add(time.Duration(i) * time.Minute)
			if lateBatch(c) {
				submit = lateMonth.Start().Add(time.Duration(rng.Int63n(lateSpan)) * time.Second)
			}
			elapsed := time.Duration(1+rng.Intn(240)) * time.Minute
			wait := time.Duration(rng.Intn(7200)) * time.Second
			r := slurm.Record{
				ID:        slurm.NewJobID(job),
				User:      fx.users[rng.Intn(len(fx.users))],
				Account:   "bench",
				Partition: "batch",
				Submit:    submit,
				Start:     submit.Add(wait),
				End:       submit.Add(wait + elapsed),
				Elapsed:   elapsed,
				Timelimit: elapsed + time.Duration(rng.Intn(120))*time.Minute,
				State:     states[rng.Intn(len(states))],
				NNodes:    int64(1 + rng.Intn(64)),
			}
			r.NCPUs = r.NNodes * 64
			job++
			out[c] = append(out[c], r)
		}
	}
	return out
}

func lateBatch(cycle int) bool { return cycle%8 == 7 }

// encodeBatches renders each batch as the pipe-text body POST /ingest takes.
func encodeBatches(batches [][]slurm.Record) [][]byte {
	out := make([][]byte, len(batches))
	for c, recs := range batches {
		var sb strings.Builder
		sb.WriteString(slurm.Header(ingestFields))
		sb.WriteByte('\n')
		for i := range recs {
			line, err := slurm.EncodeRecord(&recs[i], ingestFields)
			if err != nil {
				panic(err) // every ingest field is in the catalogue
			}
			sb.WriteString(line)
			sb.WriteByte('\n')
		}
		out[c] = []byte(sb.String())
	}
	return out
}

type liveSession struct {
	env      *env
	q        *queryd
	batches  [][]byte
	hot      []readKey
	rowsWant int // rows /healthz must report once every batch is acked
	genStart uint64
}

func openLive(e *env) (session, error) {
	q, err := startQueryd(e.flow, 1)
	if err != nil {
		return nil, err
	}
	s := &liveSession{env: e, q: q, genStart: q.store.Generation()}
	s.rowsWant = e.flow.rows + e.sz.liveCycles*e.sz.liveBatchRows
	s.batches = encodeBatches(liveRecords(e.sz, e.cfg.seed, e.flow, e.sz.liveCycles))
	e.digests["serve-live.batches"] = hex64(digest(s.batches...))
	keys, _, _ := readKeys(e.sz, e.flow)
	s.hot = keys[:hotKeys]
	if e.cfg.tamper {
		s.rowsWant++
	}
	if e.coldS == 0 {
		figs, err := figureReference(q.store, e.flow.system.Name)
		if err == nil {
			err = e.coldOnce(figs[coldFigure])
		}
		if err != nil {
			q.stop()
			return nil, err
		}
	}
	return s, nil
}

type ingestAck struct {
	Rows       int    `json:"rows"`
	Malformed  int    `json:"malformed"`
	Generation uint64 `json:"generation"`
}

// liveCycle is one tailer cycle against q: append a batch, fetch a
// figure that must be fresh, poll three hot queries. It returns the
// rows the fresh figure is known to contain.
func liveCycle(q *queryd, c int, batch []byte, hot []readKey, lastGen *uint64, buf *bytes.Buffer, sp *obs.Span) (int, error) {
	s := sp.Child("serve.ingest")
	rep, err := q.post("/ingest", batch, buf)
	s.End()
	if err != nil {
		return 0, err
	}
	var ack ingestAck
	if rep.status/100 != 2 || json.Unmarshal(rep.body, &ack) != nil {
		return 0, fmt.Errorf("ingest: status %d", rep.status)
	}
	if ack.Malformed != 0 || ack.Generation < *lastGen {
		return 0, fmt.Errorf("ingest: %d malformed rows, generation %d after %d", ack.Malformed, ack.Generation, *lastGen)
	}
	*lastGen = ack.Generation

	figs := figureKeys()
	s = sp.Child("serve.figure")
	rep, err = q.get("/figures/"+figs[c%len(figs)]+".json", buf)
	s.End()
	switch {
	case err != nil:
		return 0, err
	case rep.status/100 != 2:
		return 0, fmt.Errorf("figure: status %d", rep.status)
	case rep.gen < ack.Generation:
		return 0, fmt.Errorf("figure answered at generation %d, append acked at %d", rep.gen, ack.Generation)
	case rep.cache != "miss":
		return 0, fmt.Errorf("figure after an append was X-Cache %q, want a fresh miss", rep.cache)
	}
	*lastGen = rep.gen

	for i := 0; i < 3; i++ {
		s = sp.Child("serve.query")
		rep, err = q.get(hot[(3*c+i)%len(hot)].url, buf)
		s.End()
		switch {
		case err != nil:
			return 0, err
		case rep.status/100 != 2:
			return 0, fmt.Errorf("query: status %d", rep.status)
		case rep.gen < *lastGen:
			return 0, fmt.Errorf("query: generation went back %d → %d", *lastGen, rep.gen)
		}
		*lastGen = rep.gen
	}
	return ack.Rows, nil
}

func (s *liveSession) loop(parent *obs.Span) loopStats {
	var st loopStats
	var buf bytes.Buffer
	lastGen := s.genStart
	for c, batch := range s.batches {
		sp := parent.Child("op")
		sp.SetAttrInt("op", int64(c))
		t0 := time.Now()
		rows, err := liveCycle(s.q, c, batch, s.hot, &lastGen, &buf, sp)
		st.opMS = append(st.opMS, ms(time.Since(t0)))
		sp.End()
		if err == nil && rows != s.env.sz.liveBatchRows {
			err = fmt.Errorf("ingest acked %d rows of %d", rows, s.env.sz.liveBatchRows)
		}
		if err != nil {
			st.fail("cycle %d: %v", c, err)
			continue
		}
		st.work += int64(rows)
	}
	st.counts = serveCounts(s.q.srv, s.genStart)
	return st
}

// verify asks /healthz for the row count: every acked row must be in
// the store, or the loop lost an append.
func (s *liveSession) verify(st *loopStats) error {
	var buf bytes.Buffer
	rep, err := s.q.get("/healthz", &buf)
	if err != nil {
		return err
	}
	var health struct {
		Rows int `json:"rows"`
	}
	if err := json.Unmarshal(rep.body, &health); err != nil {
		return err
	}
	if health.Rows != s.rowsWant {
		st.fail("healthz reports %d rows, want %d (fixture + every acked batch)", health.Rows, s.rowsWant)
	}
	return nil
}

func (s *liveSession) close() { s.q.stop() }
