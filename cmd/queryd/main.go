// Command queryd is the always-on query service: it opens an accounting
// trace (binary columnar or pipe-text), keeps the store live for
// incremental appends, and serves concurrent window queries and figure
// specs over HTTP.
//
// Example:
//
//	queryd -trace traces/frontier.colstore -addr :8070 -system frontier
//
// Endpoints:
//
//	GET  /query?fields=JobID,User&start=2024-01&end=2024-02&limit=100
//	POST /ingest            (pipe-text or columnar batch in the body)
//	GET  /figures/fig4-wait-times.json
//	GET  /healthz  /metrics  /debug/vars  /debug/pprof/  /debug/requests
//
// Appends arrive two ways: POST /ingest batches, and -watch, which
// tails a growing period file the way an accounting host writes one.
// Every successful append bumps the store generation (reported in the
// X-Store-Generation response header), so cached query responses are
// invalidated exactly when the data changes and never otherwise.
// The service runs inside the serving shell every slurmsight server
// shares (serve.Server.Handler): every request, the debug routes
// included, is counted under serve_* and traced, and one slower than
// -slow is logged as a JSON line on stderr carrying its trace ID.
// SIGINT/SIGTERM drain in-flight requests before exit (-grace bounds
// the drain).
package main

import (
	"context"
	"flag"
	"log"
	"log/slog"
	"os"
	"time"

	"slurmsight/internal/obs"
	"slurmsight/internal/sacct"
	"slurmsight/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("queryd: ")

	var (
		trace  = flag.String("trace", "", "accounting trace to serve (empty starts an empty store)")
		addr   = flag.String("addr", ":8070", "listen address")
		system = flag.String("system", "cluster", "system name for figure titles")

		rate     = flag.Float64("rate", 0, "per-client requests per second (0 disables throttling)")
		burst    = flag.Float64("burst", 0, "throttle burst size (default 2x rate)")
		cacheN   = flag.Int("cache", 1024, "response cache entries")
		maxRows  = flag.Int("max-rows", 0, "hard cap on rows per /query response (0 is unlimited)")
		topUsers = flag.Int("top-users", 15, "users in the per-user states figure")
		nodes    = flag.Int("nodes", 0, "system node count for the load-timeline capacity line")

		warm          = flag.Bool("warm", false, "verify and index every binary shard at startup")
		watch         = flag.String("watch", "", "pipe-text period file to tail for appends")
		watchInterval = flag.Duration("watch-interval", 2*time.Second, "tail poll period")
		grace         = flag.Duration("grace", 10*time.Second, "shutdown drain budget for in-flight requests")

		slow = flag.Duration("slow", 250*time.Millisecond, "log requests slower than this (0 disables the slow log)")
	)
	flag.Parse()

	st, err := openStore(*trace)
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()
	if *warm {
		t0 := time.Now()
		if err := st.Warm(); err != nil {
			log.Fatal(err)
		}
		log.Printf("warmed %d rows in %s", st.Len(), time.Since(t0).Round(time.Millisecond))
	}

	metrics := obs.NewRegistry()
	metrics.PublishExpvar("queryd")
	srv, err := serve.New(serve.Config{
		Store:         st,
		System:        *system,
		Metrics:       metrics,
		RatePerSec:    *rate,
		Burst:         *burst,
		CacheEntries:  *cacheN,
		MaxRows:       *maxRows,
		TopUsers:      *topUsers,
		Nodes:         *nodes,
		SlowThreshold: *slow,
		Log:           slog.New(slog.NewJSONHandler(os.Stderr, nil)),
		Logf:          log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if *watch != "" {
		w := &serve.Watcher{
			Path:     *watch,
			Server:   srv,
			Interval: *watchInterval,
			Metrics:  metrics,
			Logf:     log.Printf,
		}
		go func() {
			if err := w.Run(ctx); err != nil && ctx.Err() == nil {
				log.Printf("watcher stopped: %v", err)
			}
		}()
		log.Printf("tailing %s every %s", *watch, *watchInterval)
	}

	log.Printf("serving %d rows across %d months on %s (generation %d)",
		st.Len(), len(st.Months()), *addr, st.Generation())
	if err := serve.ListenAndDrain(ctx, *addr, srv.Handler(), *grace, log.Printf); err != nil {
		log.Fatal(err)
	}
}

// openStore loads the trace in either format; an empty path starts an
// append-only store that fills entirely over /ingest.
func openStore(path string) (*sacct.Store, error) {
	if path == "" {
		return sacct.NewStore(), nil
	}
	st, _, err := sacct.OpenFile(path)
	return st, err
}
