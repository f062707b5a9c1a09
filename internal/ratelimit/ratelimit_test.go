package ratelimit

import (
	"testing"
	"time"

	"slurmsight/internal/obs"
)

func TestLimiterRefill(t *testing.T) {
	now := time.Unix(1000, 0)
	l := New(2, 2, func() time.Time { return now }, obs.NewRegistry().Counter("throttled_total"))
	allow := func(key string) bool { ok, _ := l.Allow(key); return ok }
	if !allow("a") || !allow("a") {
		t.Fatal("burst refused")
	}
	if allow("a") {
		t.Fatal("over-burst admitted")
	}
	if !allow("b") {
		t.Fatal("independent client refused")
	}
	now = now.Add(time.Second) // 2 tokens refilled
	if !allow("a") || !allow("a") || allow("a") {
		t.Fatal("refill arithmetic wrong")
	}
}
