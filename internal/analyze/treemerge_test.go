package analyze

import (
	"math/rand/v2"
	"testing"
	"time"

	"slurmsight/internal/slurm"
)

// chunkBundles partitions the golden trace into n contiguous bundles,
// the shape of per-chunk (or per-period) partial results.
func chunkBundles(t *testing.T, bucket time.Duration, n int) []*Bundle {
	t.Helper()
	return partition(goldenTrace(t), bucket, n)
}

// partition observes recs into n contiguous bundles.
func partition(recs []slurm.Record, bucket time.Duration, n int) []*Bundle {
	per := (len(recs) + n - 1) / n
	var out []*Bundle
	for lo := 0; lo < len(recs); lo += per {
		hi := min(lo+per, len(recs))
		b := NewBundle(bucket)
		for i := lo; i < hi; i++ {
			b.Observe(&recs[i])
		}
		out = append(out, b)
	}
	return out
}

// figureSurfaces renders every byte-exact figure surface of a bundle.
func figureSurfaces(t *testing.T, b *Bundle) map[string]string {
	t.Helper()
	return map[string]string{
		"Volume":   mustJSON(t, b.Volume.Result()),
		"Scale":    mustJSON(t, b.Scale.Result()),
		"Waits":    mustJSON(t, b.Waits.Result()),
		"Users":    mustJSON(t, b.Users.Result(50)),
		"Backfill": mustJSON(t, b.Backfill.Result()),
		"Timeline": mustJSON(t, b.Timeline.Result()),
	}
}

// TestTreeMergeMatchesLinearFold pins the merge parity contract: at every
// worker count and input count, TreeMerge must reproduce the linear
// fold's figure surfaces byte-exactly.
func TestTreeMergeMatchesLinearFold(t *testing.T) {
	bucket := 6 * time.Hour
	for _, chunks := range []int{1, 2, 3, 7, 16} {
		bs := chunkBundles(t, bucket, chunks)
		linear := NewBundle(bucket)
		for _, b := range bs {
			linear.Merge(b)
		}
		want := figureSurfaces(t, linear)
		for _, workers := range []int{1, 2, 4, 8} {
			got := TreeMerge(bucket, bs, workers)
			if got.Records != linear.Records || got.Jobs != linear.Jobs {
				t.Fatalf("chunks=%d workers=%d: counters %d/%d != %d/%d",
					chunks, workers, got.Records, got.Jobs, linear.Records, linear.Jobs)
			}
			for name, surface := range figureSurfaces(t, got) {
				if surface != want[name] {
					t.Errorf("chunks=%d workers=%d: %s diverges from the linear fold", chunks, workers, name)
				}
			}
		}
	}
}

// TestTreeMergeFloatsMatchLinearFold pins the two float accumulators to
// the linear fold exactly, not within rounding distance: reclaimable
// node-hours and every class's node-hours must be == at every worker and
// chunk count, because TreeMerge adds the partial sums in input order.
func TestTreeMergeFloatsMatchLinearFold(t *testing.T) {
	bucket := 6 * time.Hour
	for _, chunks := range []int{1, 2, 3, 7, 16} {
		bs := partition(awkwardJobs(3000), bucket, chunks)
		linear := NewBundle(bucket)
		for _, b := range bs {
			linear.Merge(b)
		}
		wantClasses := map[string]float64{}
		for _, cs := range linear.Classes.Result() {
			wantClasses[cs.Class] = cs.NodeHours
		}
		for _, workers := range []int{1, 2, 4, 8} {
			got := TreeMerge(bucket, bs, workers)
			if g, w := got.Reclaim.Result(), linear.Reclaim.Result(); g != w {
				t.Errorf("chunks=%d workers=%d: Reclaim %v != linear %v", chunks, workers, g, w)
			}
			classes := got.Classes.Result()
			if len(classes) != len(wantClasses) {
				t.Fatalf("chunks=%d workers=%d: %d classes, linear has %d", chunks, workers, len(classes), len(wantClasses))
			}
			for _, cs := range classes {
				if w := wantClasses[cs.Class]; cs.NodeHours != w {
					t.Errorf("chunks=%d workers=%d: class %s NodeHours %v != linear %v",
						chunks, workers, cs.Class, cs.NodeHours, w)
				}
			}
		}
	}
}

// awkwardJobs returns n started jobs whose node-hours use the whole
// mantissa, so any regrouping of their partial sums shows in the last ulp
// (the golden trace's whole-second elapsed times often hide it).
func awkwardJobs(n int) []slurm.Record {
	rng := rand.New(rand.NewPCG(26, 1))
	classes := []string{"", "ai", "sim", "viz"}
	out := make([]slurm.Record, n)
	for i := range out {
		elapsed := time.Duration(rng.Int64N(int64(48 * time.Hour)))
		limit := elapsed + time.Duration(rng.Int64N(int64(24*time.Hour)))
		out[i] = mkJob(int64(i+1), "u", t0.Add(time.Duration(i)*time.Minute),
			time.Duration(rng.Int64N(int64(time.Hour))), 1+rng.Int64N(9000), limit, elapsed,
			slurm.StateCompleted, false)
		out[i].Comment = classes[i%len(classes)]
	}
	return out
}

// TestTreeMergeLeavesInputsUnmutated pins the retry-safety contract: a
// combine task that fails and reruns must see its per-period bundles
// exactly as they were.
func TestTreeMergeLeavesInputsUnmutated(t *testing.T) {
	bucket := 6 * time.Hour
	bs := chunkBundles(t, bucket, 5)
	before := make([]string, len(bs))
	counts := make([]int64, len(bs))
	for i, b := range bs {
		before[i] = mustJSON(t, b.Timeline.Result())
		counts[i] = b.Records
	}
	first := TreeMerge(bucket, bs, 4)
	for i, b := range bs {
		if b.Records != counts[i] {
			t.Fatalf("input %d Records mutated: %d -> %d", i, counts[i], b.Records)
		}
		if got := mustJSON(t, b.Timeline.Result()); got != before[i] {
			t.Fatalf("input %d timeline mutated by TreeMerge", i)
		}
	}
	// A second pass over the same inputs reproduces the first.
	second := TreeMerge(bucket, bs, 4)
	if mustJSON(t, second.Timeline.Result()) != mustJSON(t, first.Timeline.Result()) {
		t.Fatal("re-running TreeMerge over the same inputs diverged")
	}
}

// TestShardSetMergeIntoNMatchesMergeInto pins that the shard fold is the
// same at every workers value as at one.
func TestShardSetMergeIntoNMatchesMergeInto(t *testing.T) {
	bucket := 6 * time.Hour
	recs := goldenTrace(t)
	build := func() *ShardSet {
		s := NewShardSet(bucket)
		const chunks = 9
		per := (len(recs) + chunks - 1) / chunks
		for c := 0; c*per < len(recs); c++ {
			sb := s.Shard(c)
			for i := c * per; i < min((c+1)*per, len(recs)); i++ {
				sb.Observe(&recs[i])
			}
		}
		return s
	}
	seq := NewBundle(bucket)
	build().MergeIntoN(seq, 1)
	want := figureSurfaces(t, seq)
	for _, workers := range []int{2, 4, 8} {
		got := NewBundle(bucket)
		build().MergeIntoN(got, workers)
		if got.Records != seq.Records || got.Jobs != seq.Jobs {
			t.Fatalf("workers=%d: counters differ", workers)
		}
		for name, surface := range figureSurfaces(t, got) {
			if surface != want[name] {
				t.Errorf("workers=%d: %s diverges from MergeIntoN(dst, 1)", workers, name)
			}
		}
	}
}
