// Package serve is the always-on query plane: a long-running HTTP
// service over a live sacct.Store that accepts incremental appends and
// answers window queries and figure requests concurrently. Every
// response is keyed by the store's generation counter, so an append
// invalidates all cached answers at once and a client can prove its
// read reflects a prior write by comparing X-Store-Generation headers.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"slurmsight/internal/analyze"
	"slurmsight/internal/core"
	"slurmsight/internal/obs"
	"slurmsight/internal/plot"
	"slurmsight/internal/sacct"
	"slurmsight/internal/sacct/colstore"
	"slurmsight/internal/slurm"
)

const (
	// maxIngestBody bounds one POST /ingest batch.
	maxIngestBody = 256 << 20
	// maxIngestPresize bounds the buffer a stated Content-Length reserves
	// before the body arrives.
	maxIngestPresize = 1 << 20
	// maxCacheBody keeps huge rendered responses out of the LRU: they
	// are still computed once per concurrent burst (single-flight) but
	// not retained.
	maxCacheBody = 8 << 20
)

// Config assembles a Server. Store is required; everything else has a
// serving-appropriate default.
type Config struct {
	Store  *sacct.Store
	System string // chart titles; default "cluster"

	Metrics *obs.Registry // nil allocates a private registry

	RatePerSec   float64 // per-client request rate; <= 0 disables throttling
	Burst        float64 // token bucket depth; default 2×rate
	CacheEntries int     // response LRU size; default 1024
	MaxRows      int     // hard cap on /query rows; <= 0 means unlimited
	TopUsers     int     // figure 5 user count; default 15
	Nodes        int     // capacity reference line for ext-load-timeline

	// Flight recorder sizing: ring of recent traces and slowest-N kept
	// per route. Zero takes the defaults (256/8); negative FlightRing
	// disables recording entirely, which also turns off per-request
	// tracing unless a slow log is configured.
	FlightRing int
	FlightTail int

	// SlowThreshold is the latency past which a request earns a
	// structured log line (with its trace ID). Zero defaults to 250ms;
	// negative disables the slow log.
	SlowThreshold time.Duration
	Log           *slog.Logger // slow-request log sink; nil disables

	Logf func(string, ...any) // nil discards
}

// Server handles the query-plane endpoints. Create with New, mount with
// Handler, run under ListenAndDrain.
type Server struct {
	store *sacct.Store
	cfg   Config
	m     *obs.Registry
	cache *respCache
	lim   *limiter
	rec   *obs.Recorder
	logf  func(string, ...any)

	ingestBatches, ingestRows, ingestMalformed, ingestErrors *obs.Counter
	genGauge, rowsGauge                                      *obs.Gauge

	// One resident analyze.Bundle feeds every figure. figMu guards it
	// and is taken before the store lock: appendBatch folds each tail
	// batch into the bundle under it, and chartAt builds charts under it,
	// so nothing reads the bundle's maps while a batch lands in them. The
	// bundle holds exactly the store's generation figGen; a label behind
	// the store's marks a stale bundle, kept only for its storage, which
	// the next re-collect empties and refills. A nil bundle is the next
	// figure's cue to collect from scratch.
	figMu       sync.Mutex
	figGen      uint64
	figBundle   *analyze.Bundle
	figAbsorbed bool // figGen was reached by absorbing a batch no figure has shown yet
}

// New validates cfg and builds a Server.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("serve: Config.Store is required")
	}
	if cfg.System == "" {
		cfg.System = "cluster"
	}
	if cfg.TopUsers <= 0 {
		cfg.TopUsers = 15
	}
	if cfg.Burst <= 0 {
		cfg.Burst = 2 * cfg.RatePerSec
	}
	if cfg.SlowThreshold == 0 {
		cfg.SlowThreshold = 250 * time.Millisecond
	}
	m := cfg.Metrics
	if m == nil {
		m = obs.NewRegistry()
	}
	var rec *obs.Recorder
	if cfg.FlightRing >= 0 {
		rec = obs.NewRecorder(cfg.FlightRing, cfg.FlightTail)
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s := &Server{
		store: cfg.Store,
		cfg:   cfg,
		m:     m,
		cache: newRespCache(cfg.CacheEntries, m),
		lim:   newLimiter(cfg.RatePerSec, cfg.Burst, m),
		rec:   rec,
		logf:  logf,

		ingestBatches:   m.Counter("serve_ingest_batches_total"),
		ingestRows:      m.Counter("serve_ingest_rows_total"),
		ingestMalformed: m.Counter("serve_ingest_malformed_total"),
		ingestErrors:    m.Counter("serve_ingest_errors_total"),
		genGauge:        m.Gauge("serve_store_generation"),
		rowsGauge:       m.Gauge("serve_store_rows"),
	}
	s.store.Instrument(m)
	obs.PublishRuntime(m)
	s.updateStoreGauges()
	return s, nil
}

// Recorder exposes the server's flight recorder (nil when disabled) so
// callers can mount its handler elsewhere or snapshot it in tests.
func (s *Server) Recorder() *obs.Recorder { return s.rec }

// Metrics returns the registry the server meters into (the configured
// one, or the private registry New allocated).
func (s *Server) Metrics() *obs.Registry { return s.m }

// CacheLen reports the current response-cache population.
func (s *Server) CacheLen() int { return s.cache.len() }

func (s *Server) updateStoreGauges() {
	s.genGauge.Set(int64(s.store.Generation()))
	s.rowsGauge.Set(int64(s.store.Len()))
}

// Handler mounts the full endpoint surface:
//
//	GET  /query          window queries, pipe-text out
//	POST /ingest         append a pipe-text or columnar batch
//	GET  /figures/<k>.json  chart spec for a figure key
//	GET  /healthz        liveness + store shape
//	GET  /metrics        Prometheus text
//	GET  /debug/requests flight recorder (HTML; ?format=json)
//	GET  /debug/pprof/*  profiling
//
// The whole mux is wrapped in request instrumentation under the
// "serve" metric prefix: RED metrics always, and — when the flight
// recorder or slow log is enabled — a per-request trace whose ID is
// echoed in X-Trace-Id.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /query", s.throttled(s.handleQuery))
	mux.HandleFunc("POST /ingest", s.throttled(s.handleIngest))
	mux.HandleFunc("GET /figures/{name}", s.throttled(s.handleFigure))
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.Handle("GET /metrics", s.m.Handler())
	mux.Handle("GET /debug/requests", s.rec.Handler())
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return Middleware{
		Registry:      s.m,
		Prefix:        "serve",
		Recorder:      s.rec,
		SlowThreshold: s.cfg.SlowThreshold,
		Log:           s.cfg.Log,
	}.Wrap(mux)
}

// throttled gates a handler behind the per-client token bucket. Denials
// carry a Retry-After computed from the actual token refill rate and
// mark the request's trace so a 429 is self-explanatory in the flight
// recorder.
func (s *Server) throttled(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ok, retry := s.lim.allowRetry(clientKey(r))
		if !ok {
			secs := int(retry/time.Second) + 1 // round up; 0 is not a valid Retry-After
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			if sp := obs.SpanFromContext(r.Context()); sp != nil {
				sp.SetAttr("throttled", "true")
				sp.SetAttrInt("retry_after_s", int64(secs))
			}
			http.Error(w, "rate limit exceeded", http.StatusTooManyRequests)
			return
		}
		h(w, r)
	}
}

// handleQuery answers GET /query: the sacct.Query surface as URL
// parameters (fields, start, end, user, account, partition, state,
// steps, limit), rendered as pipe-text. Responses carry
// X-Store-Generation (the generation whose rows the body holds, which is
// at least the one the request arrived at), X-Cache (hit/miss/coalesced),
// and X-Rows.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q, limit, key, err := parseQuery(r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if s.cfg.MaxRows > 0 && (limit <= 0 || limit > s.cfg.MaxRows) {
		limit = s.cfg.MaxRows
		key += "|cap=" + strconv.Itoa(limit)
	}
	gen := s.store.Generation()
	ent, outcome, err := s.cache.do(gen, fmt.Sprintf("q|g=%d|%s", gen, key), func() (*entry, error) {
		// The scan reads one capture of the store and says which
		// generation it was: that, not the one in the key, labels the body
		// when an append lands in between.
		body, n, gen, err := s.store.AppendQueryCtx(r.Context(), nil, q, limit)
		if err != nil {
			return nil, err
		}
		return &entry{
			body:   body,
			ctype:  "text/plain; charset=utf-8",
			rows:   n,
			gen:    gen,
			bypass: len(body) > maxCacheBody,
		}, nil
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.writeCached(w, r, ent, outcome)
}

// handleFigure answers GET /figures/<key>.json with the chart spec for
// one figure, built from the resident bundle. X-Store-Generation is the
// generation the body shows, which is at least the one the request
// arrived at.
func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	key, ok := strings.CutSuffix(name, ".json")
	if !ok || !validFigure(key) {
		http.Error(w, fmt.Sprintf("unknown figure %q", name), http.StatusNotFound)
		return
	}
	gen := s.store.Generation()
	ent, outcome, err := s.cache.do(gen, fmt.Sprintf("fig|g=%d|%s", gen, key), func() (*entry, error) {
		chart, gen, err := s.chartAt(r.Context(), key)
		if err != nil {
			return nil, err
		}
		body, err := chart.JSON()
		if err != nil {
			return nil, err
		}
		return &entry{body: body, ctype: "application/json", rows: -1, gen: gen}, nil
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.writeCached(w, r, ent, outcome)
}

func validFigure(key string) bool {
	for _, k := range core.FigureKeys() {
		if k == key {
			return true
		}
	}
	for _, k := range core.ExtendedFigureKeys() {
		if k == key {
			return true
		}
	}
	return false
}

// chartAt builds one figure from the resident bundle and returns the
// generation the chart shows. A bundle labelled with the store's current
// generation is used as it stands — collected at it, or brought to it by
// appendBatch. Any other label means something changed the store without
// the bundle seeing it (a late batch, a watcher), so the bundle is
// re-collected, in place, from one snapshot of every shard and the
// generation they belong to. A re-collect that fails — its request
// cancelled mid-scan, a corrupt page — leaves the bundle half filled, so
// it is dropped and the next figure collects afresh. The chart is built
// under figMu but holds none of the bundle's storage, so the caller
// encodes it after the lock is gone.
func (s *Server) chartAt(ctx context.Context, key string) (*plot.Chart, uint64, error) {
	s.figMu.Lock()
	defer s.figMu.Unlock()
	path := "cached"
	switch {
	case s.figBundle == nil || s.figGen != s.store.Generation():
		gen, seq, err := s.store.SnapshotCtx(ctx, analyze.ObservedFields())
		if err != nil {
			return nil, 0, err
		}
		var b *analyze.Bundle
		if s.figBundle != nil {
			b, err = analyze.RecollectCtx(ctx, seq, s.figBundle)
		} else {
			b, err = analyze.CollectCtx(ctx, seq, core.TimelineBucket)
		}
		if err != nil {
			s.figBundle = nil
			return nil, 0, err
		}
		s.figBundle, s.figGen, path = b, gen, "recollect"
	case s.figAbsorbed:
		path = "incremental"
	}
	s.figAbsorbed = false
	s.m.Counter(obs.Label("serve_figure_bundle_total", "path", path)).Inc()
	obs.SpanFromContext(ctx).SetAttr("bundle", path)
	chart, err := core.ChartFromBundleCtx(ctx, key, s.cfg.System, s.figBundle, s.cfg.TopUsers, s.cfg.Nodes)
	return chart, s.figGen, err
}

// appendBatch lands one decoded batch — a POST /ingest body or a
// Watcher's poll — and returns the generation that holds it. When the resident bundle shows the generation the append
// started from and the whole batch landed behind the store's previous
// tail, the bundle observes the batch — the records a fresh scan would
// visit next, in that order — and moves to the new generation. Otherwise
// its label falls behind and the next figure re-collects.
func (s *Server) appendBatch(recs []slurm.Record) (uint64, error) {
	s.figMu.Lock()
	defer s.figMu.Unlock()
	gen, tail, err := s.store.AppendBatch(recs)
	if err != nil || len(recs) == 0 {
		return gen, err
	}
	if tail && s.figBundle != nil && s.figGen == gen-1 {
		for i := range recs {
			s.figBundle.Observe(&recs[i])
		}
		s.figGen, s.figAbsorbed = gen, true
	}
	return gen, nil
}

func (s *Server) writeCached(w http.ResponseWriter, r *http.Request, ent *entry, outcome cacheOutcome) {
	h := w.Header()
	h.Set("Content-Type", ent.ctype)
	h.Set("X-Store-Generation", strconv.FormatUint(ent.gen, 10))
	h.Set("X-Cache", string(outcome))
	if ent.rows >= 0 {
		h.Set("X-Rows", strconv.Itoa(ent.rows))
	}
	if sp := obs.SpanFromContext(r.Context()); sp != nil {
		sp.SetAttr("cache", string(outcome))
		sp.SetAttrInt("generation", int64(ent.gen))
		if ent.rows >= 0 {
			sp.SetAttrInt("rows", int64(ent.rows))
		}
	}
	w.Write(ent.body)
}

// ingestResponse is the POST /ingest reply.
type ingestResponse struct {
	Rows       int    `json:"rows"`
	Malformed  int    `json:"malformed"`
	Generation uint64 `json:"generation"`
}

// handleIngest appends a record batch: a columnar blob (sniffed by
// magic) or pipe-text with a header line. The batch lands whole, in scan
// order, as one generation, and the response reports that generation — a
// client that re-queries with at least it in X-Store-Generation has
// proof its rows are visible. A batch the store refuses lands nothing.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	body, err := ingestBody(r)
	if err != nil {
		http.Error(w, fmt.Sprintf("serve: ingest body: %v (limit %d bytes)", err, maxIngestBody), http.StatusRequestEntityTooLarge)
		return
	}
	var (
		recs      []slurm.Record
		malformed int
	)
	decode := func() {
		if colstore.SniffBytes(body) {
			recs, err = decodeBinaryBatch(body)
		} else {
			recs, malformed, err = decodeTextBatch(body)
		}
	}
	if sp := obs.SpanFromContext(r.Context()).Child("ingest-decode"); sp != nil {
		sp.SetAttrInt("bytes", int64(len(body)))
		decode()
		sp.SetAttrInt("rows", int64(len(recs)))
		sp.SetAttrInt("malformed", int64(malformed))
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End()
	} else {
		decode()
	}
	if err != nil {
		s.ingestErrors.Inc()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	gen, err := s.appendBatch(recs)
	if err != nil {
		// The store refused the append (a corrupt lazy shard,
		// typically) — the data-loss path this service exists to
		// close. Surface it loudly; nothing landed, nothing was dropped.
		s.ingestErrors.Inc()
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.ingestBatches.Inc()
	s.ingestRows.Add(int64(len(recs)))
	s.ingestMalformed.Add(int64(malformed))
	s.updateStoreGauges()
	s.logf("ingest: +%d rows (%d malformed), generation %d", len(recs), malformed, gen)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Store-Generation", strconv.FormatUint(gen, 10))
	json.NewEncoder(w).Encode(ingestResponse{Rows: len(recs), Malformed: malformed, Generation: gen})
}

// ingestBody reads a POST /ingest body of at most maxIngestBody bytes.
// A stated Content-Length up to maxIngestPresize sizes the buffer once,
// with bytes.MinRead of room past it so that ReadFrom sees EOF without
// growing it. A longer body, or one of unstated length, grows as it
// arrives: a client cannot make the server reserve more than
// maxIngestPresize for bytes it never sends.
func ingestBody(r *http.Request) ([]byte, error) {
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 {
		buf.Grow(int(min(n, maxIngestPresize)) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(nil, r.Body, maxIngestBody))
	return buf.Bytes(), err
}

// decodeBinaryBatch opens a columnar blob where it lies, in the request
// body, and materialises every record, steps included: the rows
// sacct.OpenBinary reads from the same bytes on disk.
func decodeBinaryBatch(body []byte) ([]slurm.Record, error) {
	st, err := sacct.OpenBinaryBytes(body)
	if err != nil {
		return nil, fmt.Errorf("serve: columnar batch: %w", err)
	}
	recs, err := st.Select(sacct.Query{IncludeSteps: true})
	if err != nil {
		return nil, fmt.Errorf("serve: columnar batch: %w", err)
	}
	return recs, nil
}

// decodeTextBatch parses a pipe-text batch: first non-blank line is the
// header, malformed rows are counted and skipped (the curation stage's
// contract), an unusable header is an error.
func decodeTextBatch(body []byte) (recs []slurm.Record, malformed int, err error) {
	header, rows := splitHeader(body)
	if header == nil {
		return nil, 0, fmt.Errorf("serve: empty batch (no header line)")
	}
	return decodeRows(header, rows)
}

// splitHeader cuts the header — the first non-blank line, its newline
// included — off the front of pipe-text. A nil header means text holds
// only blank lines.
func splitHeader(text []byte) (header, rows []byte) {
	for len(text) > 0 {
		line := text
		if nl := bytes.IndexByte(text, '\n'); nl >= 0 {
			line = text[:nl+1]
		}
		text = text[len(line):]
		if len(bytes.TrimSpace(line)) > 0 {
			return line, text
		}
	}
	return nil, nil
}

// decodeRows is the one pipe-text decoder behind POST /ingest and the
// Watcher: the data rows under header, through the byte record reader.
// Malformed rows are counted and skipped; an unusable header or an
// over-long line is an error. The read buffer is no larger than the
// text, and recs is reserved once: one row per line, but no more than a
// row per header field's worth of bytes, since a row that decodes has a
// separator or newline after every field. So a batch of junk lines
// reserves no more rows than it could decode.
func decodeRows(header, rows []byte) (recs []slurm.Record, malformed int, err error) {
	size := min(len(header)+len(rows), 1<<16)
	br, err := slurm.NewByteRecordReaderSize(io.MultiReader(bytes.NewReader(header), bytes.NewReader(rows)), size)
	if err != nil {
		return nil, 0, err
	}
	lines := bytes.Count(rows, []byte{'\n'})
	if len(rows) > 0 && rows[len(rows)-1] != '\n' {
		lines++
	}
	recs = make([]slurm.Record, 0, min(lines, len(rows)/len(br.Fields())))
	for rec, err := range br.All() {
		var rowErr *slurm.RowError
		switch {
		case err == nil:
			recs = append(recs, rec.Clone()) // the reader refills rec's TRES maps on the next row
		case errors.As(err, &rowErr):
			malformed++
		default:
			return nil, 0, err
		}
	}
	return recs, malformed, nil
}

// handleHealth reports liveness and store shape.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.updateStoreGauges()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"status":        "ok",
		"rows":          s.store.Len(),
		"months":        len(s.store.Months()),
		"generation":    s.store.Generation(),
		"mem_rows":      s.store.Tail().MemRows,
		"cache_entries": s.cache.len(),
	})
}

// timeLayouts are the accepted start/end spellings, most to least
// specific. All-digit strings of unix-seconds length are epoch seconds.
var timeLayouts = []string{
	time.RFC3339Nano,
	time.RFC3339,
	"2006-01-02T15:04:05",
	"2006-01-02 15:04:05",
	"2006-01-02",
	"2006-01",
	"2006",
}

func parseTimeParam(s string) (time.Time, error) {
	if s == "" {
		return time.Time{}, nil
	}
	if n, err := strconv.ParseInt(s, 10, 64); err == nil && len(s) >= 9 {
		return time.Unix(n, 0).UTC(), nil
	}
	for _, layout := range timeLayouts {
		if t, err := time.Parse(layout, s); err == nil {
			return t.UTC(), nil
		}
	}
	return time.Time{}, fmt.Errorf("unparseable time %q (try RFC3339, 2006-01-02, 2006-01, or epoch seconds)", s)
}

// parseQuery maps URL parameters onto a sacct.Query plus a row limit,
// returning a canonical cache-key fragment (generation excluded — the
// caller prefixes it). Validation failures here become 400s; anything
// that survives and still errors during the scan is a 500.
func parseQuery(v map[string][]string) (q sacct.Query, limit int, key string, err error) {
	get := func(name string) string {
		if vals := v[name]; len(vals) > 0 {
			return strings.TrimSpace(vals[0])
		}
		return ""
	}
	if f := get("fields"); f != "" {
		for _, name := range strings.Split(f, ",") {
			name = strings.TrimSpace(name)
			if _, ok := slurm.FieldByName(name); !ok {
				return q, 0, "", fmt.Errorf("unknown field %q", name)
			}
			q.Fields = append(q.Fields, name)
		}
	}
	if q.Start, err = parseTimeParam(get("start")); err != nil {
		return q, 0, "", fmt.Errorf("start: %w", err)
	}
	if q.End, err = parseTimeParam(get("end")); err != nil {
		return q, 0, "", fmt.Errorf("end: %w", err)
	}
	if !q.Start.IsZero() && !q.End.IsZero() && !q.Start.Before(q.End) {
		return q, 0, "", fmt.Errorf("empty window: start %s is not before end %s", q.Start, q.End)
	}
	q.User = get("user")
	q.Account = get("account")
	q.Partition = get("partition")
	if st := get("state"); st != "" {
		if _, err := slurm.ParseState(st); err != nil {
			return q, 0, "", err
		}
		q.State = st
	}
	switch steps := get("steps"); steps {
	case "", "0", "false":
	case "1", "true":
		q.IncludeSteps = true
	default:
		return q, 0, "", fmt.Errorf("steps must be a boolean, got %q", steps)
	}
	if l := get("limit"); l != "" {
		limit, err = strconv.Atoi(l)
		if err != nil || limit < 0 {
			return q, 0, "", fmt.Errorf("limit must be a non-negative integer, got %q", l)
		}
	}
	tkey := func(t time.Time) string {
		if t.IsZero() {
			return ""
		}
		return strconv.FormatInt(t.UnixNano(), 10)
	}
	key = strings.Join([]string{
		"f=" + strings.ToLower(strings.Join(q.Fields, ",")),
		"s=" + tkey(q.Start),
		"e=" + tkey(q.End),
		"u=" + q.User,
		"a=" + q.Account,
		"p=" + q.Partition,
		"st=" + strings.ToLower(q.State),
		"steps=" + strconv.FormatBool(q.IncludeSteps),
		"n=" + strconv.Itoa(limit),
	}, "|")
	return q, limit, key, nil
}
