package analyze

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"time"
	"unsafe"

	"slurmsight/internal/slurm"
)

// recordSeq streams recs as a RecordSeq.
func recordSeq(recs []slurm.Record) slurm.RecordSeq {
	return func(yield func(*slurm.Record, error) bool) {
		for i := range recs {
			if !yield(&recs[i], nil) {
				return
			}
		}
	}
}

// bundleSurfaces is every result a bundle answers with, for comparing
// two bundles.
func bundleSurfaces(t *testing.T, b *Bundle) map[string]string {
	t.Helper()
	out := figureSurfaces(t, b)
	out["Classes"] = mustJSON(t, b.Classes.Result())
	out["Counts"] = mustJSON(t, []any{b.Records, b.Jobs, b.Reclaim.Result()})
	return out
}

// TestRecollectMatchesCollect re-collects one bundle through a run of
// streams — the same one, a longer one, a shorter one with classes and
// users the others lack — and requires every result to be a fresh
// collect's of the same stream.
func TestRecollectMatchesCollect(t *testing.T) {
	trace := goldenTrace(t)
	half := append([]slurm.Record(nil), trace[:len(trace)/2]...)
	for i := range half {
		half[i].Comment, half[i].User = "only-here", "u-"+half[i].User
	}
	b, err := Collect(recordSeq(trace), 6*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	for i, recs := range [][]slurm.Record{trace, trace[:len(trace)/3], half, fixedJobs(), trace} {
		want, err := Collect(recordSeq(recs), 6*time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RecollectCtx(context.Background(), recordSeq(recs), b)
		if err != nil {
			t.Fatal(err)
		}
		if got != b {
			t.Fatal("RecollectCtx returned a bundle other than the one it was given")
		}
		gs, ws := bundleSurfaces(t, got), bundleSurfaces(t, want)
		for k := range ws {
			if gs[k] != ws[k] {
				t.Errorf("stream %d: %s differs from a fresh collect", i, k)
			}
		}
	}
}

// TestRecollectReusesStorage: a re-collect of the stream the bundle
// already holds writes into the storage it has, so it allocates next to
// nothing of the bundle's sample bytes, where a fresh bundle allocates
// all of them and more in append regrowth.
func TestRecollectReusesStorage(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector pads allocations")
	}
	rng := rand.New(rand.NewSource(7))
	trace := make([]slurm.Record, 20_000)
	for i := range trace {
		trace[i] = mkJob(int64(i+1), "u"+strconv.Itoa(rng.Intn(40)), t0.Add(time.Duration(i)*time.Minute),
			time.Duration(rng.Intn(3600))*time.Second, 1+rng.Int63n(64), 4*time.Hour,
			time.Duration(1+rng.Intn(4*3600))*time.Second, slurm.StateCompleted, rng.Intn(3) == 0)
		trace[i].Comment = []string{"", "sim", "ml", "io"}[rng.Intn(4)]
	}
	b, err := Collect(recordSeq(trace), 6*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	samples := len(b.Scale.points)*int(unsafe.Sizeof(NodesElapsedPoint{})) +
		len(b.Waits.points)*int(unsafe.Sizeof(WaitPoint{})) +
		len(b.Backfill.points)*int(unsafe.Sizeof(BackfillPoint{})) +
		len(b.Timeline.edges)*int(unsafe.Sizeof(tlEdge{}))
	for _, a := range b.Classes.byClass {
		samples += 8 * (len(a.waits) + len(a.nodes) + len(a.ratios))
	}
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&before)
		if _, err := RecollectCtx(context.Background(), recordSeq(trace), b); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if limit := uint64(samples / 100); least > limit {
		t.Errorf("re-collecting %d records into their own bundle allocates %d bytes, want under 1%% of its %d sample bytes",
			len(trace), least, samples)
	}
}

// TestTimelineSortedPrefixMatchesFreshSweep: the collector sorts only
// the edges added since its last sweep and merges them in. Whatever the
// order jobs arrive in, and however Observe, Merge and Result
// interleave, every sweep must equal that of a fresh collector fed the
// same jobs in another order.
func TestTimelineSortedPrefixMatchesFreshSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for round := 0; round < 200; round++ {
		// Few distinct instants, so many edges tie.
		at := func() time.Time { return t0.Add(time.Duration(rng.Intn(40)) * 15 * time.Minute) }
		jobs := make([]slurm.Record, 1+rng.Intn(60))
		for i := range jobs {
			submit := at()
			r := slurm.Record{ID: slurm.NewJobID(int64(i + 1)), Submit: submit, NNodes: 1 + rng.Int63n(16), State: slurm.StateCompleted}
			switch rng.Intn(6) {
			case 0: // never started
				r.End = submit.Add(time.Duration(rng.Intn(4)) * 15 * time.Minute)
			case 1: // started, no end yet
				r.Start = submit.Add(time.Duration(rng.Intn(4)) * 15 * time.Minute)
			default:
				r.Start = submit.Add(time.Duration(rng.Intn(4)) * 15 * time.Minute)
				r.End = r.Start.Add(time.Duration(rng.Intn(8)) * 15 * time.Minute)
			}
			jobs[i] = r
		}
		rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })

		bucket := time.Duration(1+rng.Intn(3)) * 30 * time.Minute
		c := NewTimelineCollector(bucket)
		seen := 0
		for seen < len(jobs) {
			n := 1 + rng.Intn(len(jobs)-seen)
			part := jobs[seen : seen+n]
			if rng.Intn(2) == 0 {
				observeAll(c, part)
			} else {
				side := observeAll(NewTimelineCollector(bucket), part)
				if rng.Intn(2) == 0 {
					side.Result()
				}
				c.Merge(side)
			}
			seen += n
			if rng.Intn(2) == 0 || seen == len(jobs) {
				fresh := append([]slurm.Record(nil), jobs[:seen]...)
				rng.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
				want := observeAll(NewTimelineCollector(bucket), fresh).Result()
				if got := c.Result(); !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d, after %d of %d jobs: sweep differs from a fresh collector's", round, seen, len(jobs))
				}
			}
		}
	}
}
