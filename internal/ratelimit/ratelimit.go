// Package ratelimit is the per-client token bucket that the query service
// (internal/serve) and the model endpoint (internal/llm) both throttle
// with, and the client key they bucket by.
package ratelimit

import (
	"math"
	"net"
	"net/http"
	"sync"
	"time"

	"slurmsight/internal/obs"
)

// Limiter is a per-client token bucket: each client key accrues rate
// tokens per second up to burst, and every admitted request spends one.
// It bounds what any single client can extract from the service no
// matter how many connections it opens. A nil Limiter admits everything.
type Limiter struct {
	rate, burst float64

	mu      sync.Mutex
	clients map[string]*bucket
	now     func() time.Time

	throttled *obs.Counter
}

type bucket struct {
	tokens float64
	last   time.Time
}

// maxClients bounds the bucket map; past it, buckets already back at
// full burst (i.e. idle long enough to be indistinguishable from new
// clients) are swept.
const maxClients = 8192

// New returns a limiter reading the clock now and counting denials on
// throttled (which may be nil), or nil when rate is not positive.
func New(rate, burst float64, now func() time.Time, throttled *obs.Counter) *Limiter {
	if rate <= 0 {
		return nil
	}
	if burst < 1 {
		burst = 1
	}
	return &Limiter{
		rate:      rate,
		burst:     burst,
		clients:   map[string]*bucket{},
		now:       now,
		throttled: throttled,
	}
}

// Allow reports whether the client may proceed, spending one token, and
// on denial how long until the bucket refills to a whole token — the
// honest Retry-After value rather than a constant guess.
func (l *Limiter) Allow(key string) (bool, time.Duration) {
	if l == nil {
		return true, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	b, ok := l.clients[key]
	if !ok {
		if len(l.clients) >= maxClients {
			l.sweepLocked(now)
		}
		b = &bucket{tokens: l.burst, last: now}
		l.clients[key] = b
	}
	b.tokens = min(l.burst, b.tokens+l.rate*now.Sub(b.last).Seconds())
	b.last = now
	if b.tokens < 1 {
		l.throttled.Inc()
		// Rounded up to the nanosecond: a wait cut short by float error
		// would name an instant at which the request is still refused.
		return false, time.Duration(math.Ceil((1 - b.tokens) / l.rate * float64(time.Second)))
	}
	b.tokens--
	return true, 0
}

// RetryAfter renders a wait from Allow as a Retry-After header value in
// whole seconds: the next whole second past the wait, so a client that
// honours it finds a token, and never 0, which is not a valid
// Retry-After. Both throttled services answer with it.
func RetryAfter(wait time.Duration) int {
	return int(wait/time.Second) + 1
}

// sweepLocked drops buckets that have refilled to burst — clients idle
// long enough that evicting them changes nothing.
func (l *Limiter) sweepLocked(now time.Time) {
	for k, b := range l.clients {
		if b.tokens+l.rate*now.Sub(b.last).Seconds() >= l.burst {
			delete(l.clients, k)
		}
	}
}

// ClientKey identifies the caller: its credential when it has one the
// service checked (one bucket per credential however many hosts share
// it), otherwise the remote host (one bucket per address however many
// connections it opens). A credential the service does not check must not
// be passed: a client could mint a fresh bucket per request.
func ClientKey(r *http.Request, credential string) string {
	if credential != "" {
		return "key:" + credential
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		host = r.RemoteAddr
	}
	return "addr:" + host
}
