package analyze

import "time"

// TreeMerge folds the bundles, in input order, into one fresh bundle. The
// result is the linear fold
//
//	dst := NewBundle(bucket); for _, b := range bs { dst.Merge(b) }
//
// bit for bit — every figure surface and both float accumulators
// (reclaimable and per-class node-hours), whose partial sums are added in
// the same order — except that each sample slice is sized once, from the
// summed lengths of the inputs, where the appends would regrow it. The
// inputs are never mutated, so a caller that retries a failed combine can
// reuse them. Entries must be non-nil.
//
// workers is accepted and unused: a parallel fold would have to regroup
// the float sums, and one presized copy leaves it nothing to save.
func TreeMerge(bucket time.Duration, bs []*Bundle, workers int) *Bundle {
	out := NewBundle(bucket)
	out.mergeAll(bs...)
	return out
}
