package sched

import (
	"fmt"
	"math/rand"
)

// lazySource yields exactly the stream rand.NewSource(seed) yields, but
// its Seed is O(1). math/rand's source is a lag-273/607 additive
// generator whose Seed runs 1,841 Lehmer steps to fill all 607 state
// words, 9 µs, where a job's record reads about a hundred draws. Here
// Seed only stores the Lehmer start, and a state word is computed from it
// the first time a draw reads it: draw k reads feed word (333−k) mod 607
// and tap word (606−k) mod 607 and writes the feed word back, so below
// draw 273 neither word has been written since Seed, and below draw 607
// the feed word has not.
type lazySource struct {
	tap, feed int
	n         int    // draws since Seed, counted up to rngLen
	x0        uint64 // the seed as math/rand reduces it, the Lehmer start
	vec       [rngLen]int64
}

const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1
	// lehmerSkip is how many Lehmer steps math/rand's Seed discards
	// before the first word.
	lehmerSkip = 21
)

var (
	// lehmerPow[k] is 48271^(lehmerSkip+k) mod 2³¹−1: the Lehmer value
	// at step lehmerSkip+k from any start x0 is lehmerPow[k]·x0 mod 2³¹−1.
	lehmerPow [3 * rngLen]uint64
	// rngCooked is math/rand's unexported table of the same name, the
	// words Seed XORs into the Lehmer values, recovered in init.
	rngCooked [rngLen]int64
)

func init() {
	x := uint64(1)
	for n := 1; n < lehmerSkip+len(lehmerPow); n++ {
		x = x * 48271 % int32max
		if n >= lehmerSkip {
			lehmerPow[n-lehmerSkip] = x
		}
	}
	// Each output of a freshly seeded source is the sum of two state
	// words, the lagged one possibly written by an earlier draw; solving
	// the recurrence backwards gives every word Seed(1) left behind.
	src := rand.NewSource(1).(rand.Source64)
	var out, seeded [rngLen]int64
	for k := range out {
		out[k] = int64(src.Uint64())
	}
	for k := rngTap; k < rngLen; k++ {
		seeded[(rngLen-rngTap-1-k+rngLen)%rngLen] = out[k] - out[k-rngTap]
	}
	for k := 0; k < rngTap; k++ {
		seeded[rngLen-rngTap-1-k] = out[k] - seeded[rngLen-1-k]
	}
	var s lazySource
	s.Seed(1)
	for i := range rngCooked {
		rngCooked[i] = seeded[i] ^ s.lehmerWord(i)
	}
	if err := checkLazySource(); err != nil {
		panic(err)
	}
}

// checkLazySource compares lazySource with math/rand's source over more
// draws than the lag, for a few seeds.
func checkLazySource() error {
	var lazy lazySource
	for _, seed := range [...]int64{1, 0, -1, 1 << 40} {
		lazy.Seed(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for k := 0; k < 2*rngLen; k++ {
			if got, w := lazy.Uint64(), want.Uint64(); got != w {
				return fmt.Errorf("sched: lazy source diverges from math/rand at seed %d draw %d: %#x, want %#x", seed, k, got, w)
			}
		}
	}
	return nil
}

// Seed positions the source at the start of rand.NewSource(seed)'s stream.
func (s *lazySource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.tap, s.feed, s.n = 0, rngLen-rngTap, 0
}

// lehmerWord is state word i's Lehmer part: three consecutive Lehmer
// values packed as Seed packs them.
func (s *lazySource) lehmerWord(i int) int64 {
	p := lehmerPow[3*i : 3*i+3]
	return int64(p[0]*s.x0%int32max)<<40 ^ int64(p[1]*s.x0%int32max)<<20 ^ int64(p[2]*s.x0%int32max)
}

// seeded is state word i as Seed left it.
func (s *lazySource) seeded(i int) int64 { return s.lehmerWord(i) ^ rngCooked[i] }

// Uint64 is the next value of the stream.
func (s *lazySource) Uint64() uint64 {
	if s.tap--; s.tap < 0 {
		s.tap += rngLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += rngLen
	}
	var x int64
	switch {
	case s.n >= rngLen:
		x = s.vec[s.feed] + s.vec[s.tap]
	case s.n >= rngTap:
		x = s.seeded(s.feed) + s.vec[s.tap]
		s.n++
	default:
		x = s.seeded(s.feed) + s.seeded(s.tap)
		s.n++
	}
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 is the next value with its top bit cleared, as math/rand's is.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }
