package pool

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// TestRunCallsEveryIndexOnce checks that every index runs exactly once and
// that each call's worker index lies in [0, max(1, min(workers, n))).
func TestRunCallsEveryIndexOnce(t *testing.T) {
	for _, c := range []struct{ n, workers int }{
		{0, 4}, {1, 0}, {5, -3}, {7, 3}, {3, 8}, {100, 4},
	} {
		width := max(1, min(c.workers, c.n))
		calls := make([]atomic.Int32, c.n)
		var badW atomic.Int32
		err := Run(c.n, c.workers, func(w, i int) error {
			if w < 0 || w >= width {
				badW.Add(1)
			}
			calls[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("Run(%d, %d) = %v", c.n, c.workers, err)
		}
		for i := range calls {
			if got := calls[i].Load(); got != 1 {
				t.Errorf("Run(%d, %d): index %d ran %d times", c.n, c.workers, i, got)
			}
		}
		if badW.Load() != 0 {
			t.Errorf("Run(%d, %d): %d calls had a worker index outside [0, %d)", c.n, c.workers, badW.Load(), width)
		}
	}
}

// TestRunReturnsLowestIndexError fails several indices and checks that the
// lowest one's error comes back at every width.
func TestRunReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		err := Run(50, workers, func(_, i int) error {
			if i == 17 || i == 23 || i == 40 {
				return fmt.Errorf("index %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "index 17" {
			t.Errorf("workers=%d: err = %v, want index 17", workers, err)
		}
	}
}

// TestRunStopsAfterFailure checks that, on one worker, no index after a
// failing one starts.
func TestRunStopsAfterFailure(t *testing.T) {
	boom := errors.New("boom")
	var ran []int
	err := Run(10, 1, func(w, i int) error {
		ran = append(ran, i)
		if i == 3 {
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	if fmt.Sprint(ran) != "[0 1 2 3]" {
		t.Errorf("ran %v, want [0 1 2 3]", ran)
	}
}
