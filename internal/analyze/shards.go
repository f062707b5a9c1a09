package analyze

import (
	"sync"
	"time"
)

// ShardSet holds one collector bundle per ingest chunk so parallel
// chunk decoders can observe records lock-free: each worker writes only
// its own shard, and Bundles lists the shards in ascending chunk index —
// which is file order — so a fold in that order (MergeIntoN, TreeMerge)
// reproduces the sequential result exactly for the order-sensitive
// collectors (the point collectors append in observation order). Shard
// acquisition is the only synchronised step.
type ShardSet struct {
	mu     sync.Mutex
	bucket time.Duration
	shards map[int]*Bundle
}

// NewShardSet returns an empty shard set whose bundles use the given
// timeline bucket (≤ 0 defaults to one hour, as in NewBundle).
func NewShardSet(bucket time.Duration) *ShardSet {
	return &ShardSet{bucket: bucket, shards: make(map[int]*Bundle)}
}

// Shard returns chunk i's bundle, creating it on first use. Safe to
// call from concurrent workers; the returned bundle itself must only be
// observed from one goroutine at a time.
func (s *ShardSet) Shard(i int) *Bundle {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.shards[i]
	if !ok {
		b = NewBundle(s.bucket)
		s.shards[i] = b
	}
	return b
}

// MergeIntoN folds every shard into dst in ascending chunk index, after
// growing dst's sample slices once to their final length. Call it after
// the parallel decode has finished; figure data is bit-exact with
// observing the whole file sequentially into dst. workers is accepted
// and unused, as in TreeMerge.
func (s *ShardSet) MergeIntoN(dst *Bundle, workers int) {
	dst.mergeAll(s.Bundles()...)
}

// Bundles returns the shard bundles in ascending chunk index. Call it
// after the parallel decode has finished.
func (s *ShardSet) Bundles() []*Bundle {
	s.mu.Lock()
	defer s.mu.Unlock()
	max := -1
	for i := range s.shards {
		if i > max {
			max = i
		}
	}
	out := make([]*Bundle, 0, len(s.shards))
	for i := 0; i <= max; i++ {
		if b, ok := s.shards[i]; ok {
			out = append(out, b)
		}
	}
	return out
}
