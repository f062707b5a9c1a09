package analyze

import (
	"cmp"
	"slices"
)

// sampleBlock is how many samples one block of a sample list holds.
const sampleBlock = 256

// samples is an append-only list of figure samples: a contiguous head
// and, once the head is full, fixed-size blocks, so an add never moves a
// stored sample. A list built from empty holds about its final bytes,
// where append's 1.25× regrowth allocates four to five times them. The
// blocks are folded into the head once, presized, when a reader wants
// the samples as one slice (all) or a merge wants room in the head
// (grow). Lists are not safe for concurrent use, except that all on a
// list without blocks only reads.
type samples[T any] struct {
	head   []T
	blocks [][]T // every block full but the last
	block  int   // block length; 0 is sampleBlock (export_test.go lowers it)
}

// add appends x.
func (s *samples[T]) add(x T) {
	if len(s.blocks) == 0 && len(s.head) < cap(s.head) {
		s.head = append(s.head, x)
		return
	}
	n := len(s.blocks)
	if n == 0 || len(s.blocks[n-1]) == cap(s.blocks[n-1]) {
		s.blocks = append(s.blocks, make([]T, 0, cmp.Or(s.block, sampleBlock)))
		n++
	}
	s.blocks[n-1] = append(s.blocks[n-1], x)
}

// len returns how many samples the list holds.
func (s *samples[T]) len() int {
	n := len(s.head)
	for _, b := range s.blocks {
		n += len(b)
	}
	return n
}

// grow folds the blocks into the head and leaves room in it for n more
// samples. The head is regrown at most once, as slices.Grow regrows it:
// an empty head to about the length it needs, a full one as append would,
// so repeated merges stay amortized.
func (s *samples[T]) grow(n int) {
	head := slices.Grow(s.head, s.len()-len(s.head)+n)
	for _, b := range s.blocks {
		head = append(head, b...)
	}
	s.head, s.blocks = head, nil
}

// all returns every sample in order as one slice, folding the blocks
// into the head first. The slice is the head itself: a write to it is a
// write to the list.
func (s *samples[T]) all() []T {
	if len(s.blocks) > 0 {
		s.grow(0)
	}
	return s.head
}

// merge appends o's samples in order; o is left as it was.
func (s *samples[T]) merge(o *samples[T]) {
	s.grow(o.len())
	s.head = append(s.head, o.head...)
	for _, b := range o.blocks {
		s.head = append(s.head, b...)
	}
}

// reset empties the list for a re-collect. The head keeps its storage;
// a list that had gone into blocks has its head regrown, as append
// would regrow it, to at least the length the list held, so a pass over
// the same stream, or one a few appends longer, refills it in place. An
// exact-length head would overflow on the first appended sample and make
// every re-collect pay for two heads.
func (s *samples[T]) reset() {
	if len(s.blocks) > 0 {
		s.head = slices.Grow(s.head[:0], s.len())
	}
	s.head, s.blocks = s.head[:0], nil
}
