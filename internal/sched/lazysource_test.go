package sched

import (
	"math"
	"math/rand"
	"testing"
)

// TestLazySourceMatchesMathRand pins lazySource to the stream of
// rand.NewSource: the seeds math/rand's reduction treats specially, 2,000
// random seeds each read for a random length of up to 5,000 draws — past
// the 273 and 607 lags, so that written words are read back — and the
// mixed Float64, Intn and Int63n calls Records makes, all through one
// source reseeded between runs as Records reseeds it.
func TestLazySourceMatchesMathRand(t *testing.T) {
	lazy := rand.New(&lazySource{})
	check := func(seed int64, draws int, mixed bool) {
		t.Helper()
		lazy.Seed(seed)
		want := rand.New(rand.NewSource(seed))
		for k := 0; k < draws; k++ {
			var got, exp uint64
			switch {
			case !mixed:
				got, exp = lazy.Uint64(), want.Uint64()
			case k%3 == 0:
				got, exp = math.Float64bits(lazy.Float64()), math.Float64bits(want.Float64())
			case k%3 == 1:
				got, exp = uint64(lazy.Intn(127)), uint64(want.Intn(127))
			default:
				got, exp = uint64(lazy.Int63n(1<<16)), uint64(want.Int63n(1<<16))
			}
			if got != exp {
				t.Fatalf("seed %d: draw %d is %#x, math/rand's is %#x", seed, k, got, exp)
			}
		}
	}
	const m = int32max
	for _, seed := range []int64{0, -1, 1, m, -m, 2 * m, 3*m + 1, m - 1, math.MinInt64, math.MaxInt64} {
		check(seed, 3*rngLen, false)
		check(seed, 3*rngLen, true)
	}
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		check(int64(r.Uint64()), 1+r.Intn(5000), i%2 == 1)
	}
}

// BenchmarkLazySourceSeed is one job's worth of Records draws: a reseed
// and 100 Float64s, through lazySource and through math/rand's source.
func BenchmarkLazySourceSeed(b *testing.B) {
	for _, bc := range []struct {
		name string
		src  rand.Source
	}{{"lazy", &lazySource{}}, {"mathrand", rand.NewSource(0)}} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(bc.src)
			var sink float64
			for i := 0; i < b.N; i++ {
				rng.Seed(int64(i) * 0x9E3779B9)
				for k := 0; k < 100; k++ {
					sink += rng.Float64()
				}
			}
			benchSink = sink
		})
	}
}

var benchSink float64
