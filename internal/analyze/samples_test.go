package analyze

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"slurmsight/internal/curate"
	"slurmsight/internal/slurm"
)

// blockLens are the block lengths the block-edge tests run at: the
// smallest ones, where nearly every sample starts a block, and the one
// the package uses.
var blockLens = []int{1, 2, 3, sampleBlock}

// TestSamplesKeepOrderAcrossBlocks drives one list through adds, folds,
// merges and resets at every block length and head capacity, and checks
// its samples against a plain slice after each step: in order, blocks
// full but the last, and a stored sample never moved by an add.
func TestSamplesKeepOrderAcrossBlocks(t *testing.T) {
	for _, block := range blockLens {
		for _, headCap := range []int{0, 1, 5} {
			name := fmt.Sprintf("block=%d/head=%d", block, headCap)
			s := samples[int]{head: make([]int, 0, headCap), block: block}
			var want []int
			check := func(step string) {
				t.Helper()
				if s.len() != len(want) {
					t.Fatalf("%s, %s: len %d, want %d", name, step, s.len(), len(want))
				}
				for i, b := range s.blocks {
					if cap(b) != block || (i < len(s.blocks)-1 && len(b) != block) {
						t.Fatalf("%s, %s: block %d holds %d of %d, want a full block of %d", name, step, i, len(b), cap(b), block)
					}
				}
				if got := s.all(); !slices.Equal(got, want) || len(s.blocks) != 0 {
					t.Fatalf("%s, %s: all() = %v with %d blocks left, want %v", name, step, got, len(s.blocks), want)
				}
			}
			add := func(n int) {
				var first *int
				for range n {
					s.add(len(want))
					want = append(want, len(want))
					if first == nil && len(s.blocks) > 0 {
						first = &s.blocks[0][0]
					}
				}
				if first != nil && &s.blocks[0][0] != first {
					t.Fatalf("%s: adding %d samples moved the first block's", name, n)
				}
			}
			for _, n := range []int{0, 1, 2, 3, 4, 7, 300} {
				add(n)
				check(fmt.Sprintf("after %d adds", n))
			}
			var o samples[int]
			o.block = block
			for i := range 5 {
				o.add(-i)
			}
			add(2)
			s.merge(&o)
			want = append(want, 0, -1, -2, -3, -4)
			check("after a merge")
			s.reset()
			want = want[:0]
			add(3*block + 1)
			check("after a reset")
		}
	}
}

// TestResetLeavesRoomForAppends: a list that had gone into blocks — a
// resident bundle that observed appended rows no figure has read yet — is
// reset to one head with room beyond what it held, so a re-collect of the
// same stream a few appends longer refills the head without allocating.
// An exact-length head overflowed on the first appended sample, and every
// re-collect paid for two heads.
func TestResetLeavesRoomForAppends(t *testing.T) {
	var s samples[int]
	for i := range 10_000 {
		s.add(i)
	}
	s.all()
	for i := range 1_000 {
		s.add(i)
	}
	held := s.len()
	if len(s.blocks) == 0 {
		t.Fatal("the appends did not reach a block")
	}
	s.reset()
	if allocs := testing.AllocsPerRun(1, func() {
		s.head = s.head[:0]
		for i := range held + 200 {
			s.add(i)
		}
	}); allocs != 0 || len(s.blocks) != 0 {
		t.Errorf("refilling %d samples after a reset allocated %.0f times into %d blocks, want none",
			held+200, allocs, len(s.blocks))
	}
}

// blockedPartition observes recs into n contiguous bundles whose sample
// lists use the given block length.
func blockedPartition(recs []slurm.Record, bucket time.Duration, n, block int) []*Bundle {
	per := (len(recs) + n - 1) / n
	var out []*Bundle
	for lo := 0; lo < len(recs); lo += per {
		b := NewBundle(bucket)
		b.setSampleBlock(block)
		out = append(out, observeAll(b, recs[lo:min(lo+per, len(recs))]))
	}
	return out
}

// blockCount is how many blocks b's sample lists hold.
func blockCount(b *Bundle) int {
	n := len(b.Scale.points.blocks) + len(b.Waits.points.blocks) +
		len(b.Backfill.points.blocks) + len(b.Timeline.edges.blocks)
	for _, a := range b.Classes.byClass {
		n += len(a.waits.blocks) + len(a.nodes.blocks) + len(a.ratios.blocks)
	}
	return n
}

// TestBlockEdgesMatchCollect: at every block length, whichever way the
// records reach a bundle — observed with figures read between, merged
// one by one, folded by TreeMerge or MergeIntoN at every chunk width,
// observed after a fold, re-collected after appends — every collector's
// Result, the timeline sweep and the class summaries equal one Collect
// pass over the same records.
func TestBlockEdgesMatchCollect(t *testing.T) {
	recs := goldenTrace(t)
	bucket := 6 * time.Hour
	ref, err := Collect(recordSeq(recs), bucket)
	if err != nil {
		t.Fatal(err)
	}
	want := bundleSurfaces(t, ref)
	third := len(recs) / 3
	for _, block := range blockLens {
		blocked := func() *Bundle {
			b := NewBundle(bucket)
			b.setSampleBlock(block)
			return b
		}
		ways := map[string]func() *Bundle{
			"Observe": func() *Bundle {
				b := observeAll(blocked(), recs[:third])
				bundleSurfaces(t, b) // fold, then add behind the folded head
				return observeAll(b, recs[third:])
			},
			"Merge": func() *Bundle {
				b := observeAll(blocked(), recs[:third])
				for _, o := range blockedPartition(recs[third:], bucket, 3, block) {
					b.Merge(o)
				}
				return b
			},
			"observe after TreeMerge": func() *Bundle {
				b := TreeMerge(bucket, blockedPartition(recs[:2*third], bucket, 4, block), 1)
				b.setSampleBlock(block)
				return observeAll(b, recs[2*third:])
			},
			"RecollectCtx after appends": func() *Bundle {
				b := observeAll(blocked(), recs[:third])
				bundleSurfaces(t, b)
				observeAll(b, recs[third:2*third])
				b, err := RecollectCtx(context.Background(), recordSeq(recs), b)
				if err != nil {
					t.Fatal(err)
				}
				return b
			},
		}
		for _, width := range []int{1, 2, 4, 8} {
			ways[fmt.Sprintf("TreeMerge width=%d", width)] = func() *Bundle {
				b := TreeMerge(bucket, blockedPartition(recs, bucket, width, block), width)
				if n := blockCount(b); n != 0 {
					t.Errorf("block=%d, TreeMerge width=%d: the fold left %d blocks, so its concurrent readers would write", block, width, n)
				}
				return b
			}
			ways[fmt.Sprintf("MergeIntoN width=%d", width)] = func() *Bundle {
				s := NewShardSet(bucket)
				per := (len(recs) + width - 1) / width
				for i, lo := 0, 0; lo < len(recs); i, lo = i+1, lo+per {
					sb := s.Shard(i)
					sb.setSampleBlock(block)
					observeAll(sb, recs[lo:min(lo+per, len(recs))])
				}
				dst := blocked()
				s.MergeIntoN(dst, width)
				return dst
			}
		}
		for name, build := range ways {
			got := bundleSurfaces(t, build())
			for k := range want {
				if got[k] != want[k] {
					t.Errorf("block=%d, %s: %s differs from one Collect pass", block, name, k)
				}
			}
		}
	}
}

// TestCombineCopiesEachSampleOnce pins what the figure samples of a
// chunked curate plus combine cost: the chunk shards grow in blocks, so
// they hold about their samples' bytes, and the fold into the run's
// bundle copies each sample once, so sample storage is about twice the
// combined bundle's sample bytes. Appending every sample list from empty
// costs four to five times them in the shards alone.
func TestCombineCopiesEachSampleOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector pads allocations")
	}
	fields := ObservedFields()
	jobs := randomJobs(24_000, 11)
	var periods []string
	for p, lo := 0, 0; lo < len(jobs); p, lo = p+1, lo+len(jobs)/3 {
		var sb strings.Builder
		sb.WriteString(slurm.Header(fields))
		sb.WriteByte('\n')
		for i := range jobs[lo : lo+len(jobs)/3] {
			line, err := slurm.EncodeRecord(&jobs[lo+i], fields)
			if err != nil {
				t.Fatal(err)
			}
			sb.WriteString(line)
			sb.WriteByte('\n')
		}
		path := filepath.Join(t.TempDir(), fmt.Sprintf("period%d.txt", p))
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		periods = append(periods, path)
	}

	for _, width := range []int{2, 4} {
		opts := curate.DefaultOptions()
		opts.Workers = width
		// run curates every period, observing into chunk shards when
		// observe is set, and folds the shards as combine does.
		run := func(observe bool) (*Bundle, uint64) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			var chunks []*Bundle
			for _, in := range periods {
				var rep curate.Report
				shards := NewShardSet(time.Hour)
				_, err := curate.StreamFileParallel(in, "", opts, &rep, func(chunk int) func(*slurm.Record) bool {
					sb := shards.Shard(chunk)
					return func(r *slurm.Record) bool {
						if observe {
							sb.Observe(r)
						}
						return true
					}
				})
				if err != nil || rep.Kept != len(jobs)/3 {
					t.Fatalf("width=%d: kept %d of %d rows, %v", width, rep.Kept, len(jobs)/3, err)
				}
				chunks = append(chunks, shards.Bundles()...)
			}
			b := TreeMerge(time.Hour, chunks, 1)
			runtime.ReadMemStats(&after)
			return b, after.TotalAlloc - before.TotalAlloc
		}
		least := uint64(math.MaxUint64)
		var combined *Bundle
		for range 3 {
			var with, without uint64
			combined, with = run(true)
			_, without = run(false)
			if with > without {
				least = min(least, with-without)
			}
		}
		if combined.Jobs != int64(len(jobs)) {
			t.Fatalf("width=%d: combined %d jobs, want %d", width, combined.Jobs, len(jobs))
		}
		samples := sampleBytes(combined)
		ratio := float64(least) / float64(samples)
		t.Logf("width=%d: %d bytes of sample storage for %d sample bytes (%.2f×)", width, least, samples, ratio)
		if ratio > 2.3 {
			t.Errorf("width=%d: observing and folding %d jobs allocates %.2f× their %d sample bytes, want at most 2.3×",
				width, len(jobs), ratio, samples)
		}
	}
}
