package llm

import (
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// FaultPolicy turns the mock endpoint into the flaky upstream the
// workflow's retry layer is built for: a seeded share of requests gets a
// 429 (with Retry-After), a 500, or a stall before being served. Rates
// are per-request probabilities drawn in that order from one uniform
// sample; their sum should stay ≤ 1.
type FaultPolicy struct {
	Rate429   float64
	Rate500   float64
	RateStall float64
	// StallFor is how long a stalled request hangs before being served
	// (the request context cuts it short when the client gives up).
	StallFor time.Duration
	// RetryAfter is the hint attached to injected 429s.
	RetryAfter time.Duration
	// Seed makes the fault sequence reproducible.
	Seed int64

	mu  sync.Mutex
	rng *rand.Rand
}

// Middleware wraps next with the fault schedule.
func (p *FaultPolicy) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch p.roll() {
		case "429":
			if p.RetryAfter > 0 {
				w.Header().Set("Retry-After",
					fmt.Sprintf("%d", int(p.RetryAfter.Seconds())))
			}
			writeJSON(w, http.StatusTooManyRequests, apiError{"injected rate limit"})
			return
		case "500":
			writeJSON(w, http.StatusInternalServerError, apiError{"injected server error"})
			return
		case "stall":
			timer := time.NewTimer(p.StallFor)
			defer timer.Stop()
			select {
			case <-r.Context().Done():
				return // client hung up; nothing to answer
			case <-timer.C:
			}
		}
		next.ServeHTTP(w, r)
	})
}

// roll draws the fault for the next request.
func (p *FaultPolicy) roll() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.rng == nil {
		seed := p.Seed
		if seed == 0 {
			seed = 1
		}
		p.rng = rand.New(rand.NewSource(seed))
	}
	u := p.rng.Float64()
	switch {
	case u < p.Rate429:
		return "429"
	case u < p.Rate429+p.Rate500:
		return "500"
	case u < p.Rate429+p.Rate500+p.RateStall:
		return "stall"
	}
	return ""
}

// Active reports whether any fault has a non-zero probability.
func (p *FaultPolicy) Active() bool {
	return p.Rate429 > 0 || p.Rate500 > 0 || p.RateStall > 0
}
