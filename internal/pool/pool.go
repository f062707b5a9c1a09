// Package pool is the one fan-out loop: n independent calls spread over
// a few goroutines. The workflow's concurrency is the paper's GNU
// Parallel fan-out of sacct queries, the curate stage's chunk decoders,
// the store's month builds and the tournament's arms; each of them is a
// Run.
package pool

import (
	"sync"
	"sync/atomic"
)

// Run calls fn(w, i) once for every i in [0, n), on max(1, min(workers,
// n)) goroutines, the caller's among them, and returns when every call
// has returned. Each worker takes the next index in order; w is its own
// index, in [0, max(1, min(workers, n))), so a caller may keep scratch
// per worker. Once a call fails, no index above it starts, and Run
// returns the error of the failing call with the lowest index, nil when
// none failed. Because indices are taken in order, that is the lowest
// index whose call fails at all, whatever the interleaving.
func Run(n, workers int, fn func(w, i int) error) error {
	var (
		next atomic.Int64 // the next index a worker takes
		stop atomic.Int64 // indices at or past it do not start
		mu   sync.Mutex   // orders the writes of stop and err
		err  error
	)
	stop.Store(int64(n))
	work := func(w int) {
		for i := next.Add(1) - 1; i < stop.Load(); i = next.Add(1) - 1 {
			if e := fn(w, int(i)); e != nil {
				mu.Lock()
				if i < stop.Load() {
					stop.Store(i)
					err = e
				}
				mu.Unlock()
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
	return err
}
