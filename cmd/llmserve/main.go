// Command llmserve runs the mock multimodal LLM API: the deterministic
// chart analyst behind a Gemma-style JSON endpoint with bearer-token auth
// and rate limiting. The workflow's AI stages point at it via -llm-url.
//
// Example:
//
//	llmserve -addr :9090 -key sk-local-dev
//
// A fault-injection mode turns the server into a deliberately flaky
// upstream for exercising the workflow's retry layer:
//
//	llmserve -addr :9090 -key sk-local-dev \
//	  -fault-429 0.2 -fault-500 0.1 -fault-stall 0.05 -fault-seed 7
//
// The API runs inside the serving shell every slurmsight server shares
// (serve.Serve): Prometheus-style counters at /metrics, expvar at
// /debug/vars, the flight recorder at /debug/requests, and the standard
// pprof profiles under /debug/pprof/. Every request, those included, is
// counted under llmserve_* and traced; the shell sits outside the fault
// injection, so injected 429/500s are counted as clients see them.
// SIGINT/SIGTERM drain in-flight requests before exit (-grace bounds the
// drain).
package main

import (
	"context"
	"flag"
	"log"
	"time"

	"slurmsight/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("llmserve: ")

	var (
		addr  = flag.String("addr", ":9090", "listen address")
		key   = flag.String("key", "", "API key (empty disables auth)")
		rate  = flag.Float64("rate", 10, "requests per second per key (0 disables limiting)")
		burst = flag.Float64("burst", 20, "rate-limit burst size")
		grace = flag.Duration("grace", 10*time.Second, "shutdown drain budget for in-flight requests")

		fault429   = flag.Float64("fault-429", 0, "probability of an injected 429 per request")
		fault500   = flag.Float64("fault-500", 0, "probability of an injected 500 per request")
		faultStall = flag.Float64("fault-stall", 0, "probability of a stalled response per request")
		stallFor   = flag.Duration("fault-stall-for", 2*time.Second, "how long a stalled response hangs")
		retryAfter = flag.Duration("fault-retry-after", time.Second, "Retry-After hint on injected 429s")
		faultSeed  = flag.Int64("fault-seed", 1, "seed for the fault schedule")

		slow = flag.Duration("slow", 250*time.Millisecond, "log requests slower than this (0 disables the slow log)")
	)
	flag.Parse()

	server, faults := newServer(serverConfig{
		key:        *key,
		rate:       *rate,
		burst:      *burst,
		fault429:   *fault429,
		fault500:   *fault500,
		faultStall: *faultStall,
		stallFor:   *stallFor,
		retryAfter: *retryAfter,
		faultSeed:  *faultSeed,
	})
	handler := server.Handler()
	if faults.Active() {
		log.Printf("fault injection on: 429=%.2f 500=%.2f stall=%.2f (seed %d)",
			*fault429, *fault500, *faultStall, *faultSeed)
		handler = faults.Middleware(handler)
	}

	log.Printf("serving the %s analyst on %s (metrics: /metrics, profiles: /debug/pprof/)",
		server.ModelName, *addr)
	if err := serve.Serve(context.Background(), *addr, "llmserve", nil, handler, *slow, *grace, log.Printf); err != nil {
		log.Fatal(err)
	}
}
