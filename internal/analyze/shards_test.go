package analyze

import (
	"sync"
	"testing"
	"time"
)

// TestShardSetMergeMatchesSequential pins the parallel-ingest
// determinism contract: records observed into per-chunk shards from
// concurrent workers, merged in chunk order, must produce figure data
// byte-identical to one sequential pass over the same records in file
// order — even when the shards finish out of order.
func TestShardSetMergeMatchesSequential(t *testing.T) {
	recs := goldenTrace(t)
	bucket := 6 * time.Hour

	whole := NewBundle(bucket)
	for i := range recs {
		whole.Observe(&recs[i])
	}

	// Partition into contiguous chunks as the chunk scanner would, then
	// observe each chunk from its own goroutine in scrambled start
	// order: the ShardSet must not care when shards are filled, only
	// where each record sits in the file.
	const chunks = 7
	s := NewShardSet(bucket)
	var wg sync.WaitGroup
	per := (len(recs) + chunks - 1) / chunks
	for c := chunks - 1; c >= 0; c-- {
		lo := c * per
		hi := min(lo+per, len(recs))
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(c, lo, hi int) {
			defer wg.Done()
			sb := s.Shard(c)
			for i := lo; i < hi; i++ {
				sb.Observe(&recs[i])
			}
		}(c, lo, hi)
	}
	wg.Wait()

	merged := NewBundle(bucket)
	s.MergeIntoN(merged, 1)

	if s.Len() == 0 || s.Len() > chunks {
		t.Fatalf("shards = %d", s.Len())
	}
	if merged.Records != whole.Records || merged.Jobs != whole.Jobs {
		t.Fatalf("merged counters %d/%d != %d/%d",
			merged.Records, merged.Jobs, whole.Records, whole.Jobs)
	}
	pairs := []struct {
		name      string
		got, want string
	}{
		{"Volume", mustJSON(t, merged.Volume.Result()), mustJSON(t, whole.Volume.Result())},
		{"Scale", mustJSON(t, merged.Scale.Result()), mustJSON(t, whole.Scale.Result())},
		{"Waits", mustJSON(t, merged.Waits.Result()), mustJSON(t, whole.Waits.Result())},
		{"Users", mustJSON(t, merged.Users.Result(50)), mustJSON(t, whole.Users.Result(50))},
		{"Backfill", mustJSON(t, merged.Backfill.Result()), mustJSON(t, whole.Backfill.Result())},
		{"Timeline", mustJSON(t, merged.Timeline.Result()), mustJSON(t, whole.Timeline.Result())},
		{"Classes", mustJSON(t, merged.Classes.Result()), mustJSON(t, whole.Classes.Result())},
	}
	for _, p := range pairs {
		if p.got != p.want {
			t.Errorf("%s diverges from the sequential pass", p.name)
		}
	}
	if merged.Reclaim.Result() != whole.Reclaim.Result() {
		t.Error("Reclaim diverges from the sequential pass")
	}
}

// TestShardSetSparseIndices checks that MergeIntoN tolerates chunk
// indices that were never materialised (e.g. a consumer that only
// sharded some chunks) and still folds the rest in ascending order.
func TestShardSetSparseIndices(t *testing.T) {
	recs := goldenTrace(t)
	s := NewShardSet(0)
	half := len(recs) / 2
	sb := s.Shard(5) // only chunk 5 exists
	for i := half; i < len(recs); i++ {
		sb.Observe(&recs[i])
	}
	dst := NewBundle(0)
	s.MergeIntoN(dst, 1)
	if int(dst.Records) != len(recs)-half {
		t.Errorf("Records = %d, want %d", dst.Records, len(recs)-half)
	}
}
