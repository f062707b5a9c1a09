package analyze

import (
	"encoding/json"
	"maps"
	"math/big"
	"reflect"
	"testing"
	"time"

	"slurmsight/internal/cluster"
	"slurmsight/internal/sched"
	"slurmsight/internal/slurm"
	"slurmsight/internal/tracegen"
)

// goldenTrace simulates a fixed-seed Frontier workload with steps — the
// reference input for the single-pass/multi-pass equivalence tests.
func goldenTrace(t *testing.T) []slurm.Record {
	t.Helper()
	p := tracegen.FrontierProfile()
	p.JobsPerDay, p.Users = 80, 40
	reqs, err := tracegen.Generate([]tracegen.Phase{{
		Profile: p, Start: t0, End: t0.AddDate(0, 0, 14),
	}}, 97)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := sched.New(sched.DefaultConfig(cluster.Frontier()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(reqs, sched.Options{EmitSteps: true})
	if err != nil {
		t.Fatal(err)
	}
	jobs, steps := res.Collect()
	return append(jobs, steps...)
}

// mustJSON pins byte-level equality between figure payloads.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestBundleMatchesMultiPassBuilders is the golden equivalence test: one
// Bundle pass over a fixed-seed trace must produce byte-identical figure
// data to each collector fed the trace in a pass of its own.
func TestBundleMatchesMultiPassBuilders(t *testing.T) {
	recs := goldenTrace(t)
	bucket := 6 * time.Hour

	b := observeAll(NewBundle(bucket), recs)

	if got, want := mustJSON(t, b.Volume.Result()), mustJSON(t, observeAll(NewVolumeCollector(), recs).Result()); got != want {
		t.Errorf("Volume diverges:\n got %s\nwant %s", got, want)
	}
	if got, want := mustJSON(t, b.Scale.Result()), mustJSON(t, observeAll(NewScaleCollector(), recs).Result()); got != want {
		t.Error("Scale diverges")
	}
	if got, want := mustJSON(t, b.Waits.Result()), mustJSON(t, observeAll(NewWaitCollector(), recs).Result()); got != want {
		t.Error("Waits diverges")
	}
	if got, want := mustJSON(t, b.Users.Result(10)), mustJSON(t, observeAll(NewUserStatesCollector(), recs).Result(10)); got != want {
		t.Errorf("Users diverges:\n got %s\nwant %s", got, want)
	}
	if got, want := mustJSON(t, b.Backfill.Result()), mustJSON(t, observeAll(NewBackfillCollector(), recs).Result()); got != want {
		t.Error("Backfill diverges")
	}
	if got, want := b.Reclaim.Result(), observeAll(NewReclaimableCollector(), recs).Result(); got != want {
		t.Errorf("Reclaimable %v != %v", got, want)
	}
	if got, want := mustJSON(t, b.Timeline.Result()), mustJSON(t, observeAll(NewTimelineCollector(bucket), recs).Result()); got != want {
		t.Error("Timeline diverges")
	}
	if got, want := mustJSON(t, b.Classes.Result()), mustJSON(t, observeAll(NewClassCollector(), recs).Result()); got != want {
		t.Errorf("Classes diverges:\n got %s\nwant %s", got, want)
	}
	if int(b.Records) != len(recs) {
		t.Errorf("Records = %d, want %d", b.Records, len(recs))
	}
	jobs := 0
	for i := range recs {
		if !recs[i].IsStep() {
			jobs++
		}
	}
	if int(b.Jobs) != jobs {
		t.Errorf("Jobs = %d, want %d", b.Jobs, jobs)
	}
}

// TestBundleMergeMatchesSinglePass pins the per-period path the workflow
// uses: bundles built from consecutive partitions, merged in partition
// order, must match one bundle fed the whole trace — point data
// byte-identical, per-year/per-user counts exactly equal.
func TestBundleMergeMatchesSinglePass(t *testing.T) {
	recs := goldenTrace(t)
	bucket := 6 * time.Hour

	whole := NewBundle(bucket)
	for i := range recs {
		whole.Observe(&recs[i])
	}

	merged := NewBundle(bucket)
	for lo := 0; lo < len(recs); lo += 500 {
		hi := min(lo+500, len(recs))
		part := NewBundle(bucket)
		for i := lo; i < hi; i++ {
			part.Observe(&recs[i])
		}
		merged.Merge(part)
	}

	if got, want := mustJSON(t, merged.Scale.Result()), mustJSON(t, whole.Scale.Result()); got != want {
		t.Error("merged Scale diverges from single pass")
	}
	if got, want := mustJSON(t, merged.Waits.Result()), mustJSON(t, whole.Waits.Result()); got != want {
		t.Error("merged Waits diverges from single pass")
	}
	if got, want := mustJSON(t, merged.Backfill.Result()), mustJSON(t, whole.Backfill.Result()); got != want {
		t.Error("merged Backfill diverges from single pass")
	}
	if !reflect.DeepEqual(merged.Volume.Result(), whole.Volume.Result()) {
		t.Error("merged Volume diverges from single pass")
	}
	if !reflect.DeepEqual(merged.Users.Result(0), whole.Users.Result(0)) {
		t.Error("merged Users diverges from single pass")
	}
	if got, want := mustJSON(t, merged.Timeline.Result()), mustJSON(t, whole.Timeline.Result()); got != want {
		t.Error("merged Timeline diverges from single pass")
	}
	if merged.Records != whole.Records || merged.Jobs != whole.Jobs {
		t.Errorf("merged counters %d/%d != %d/%d",
			merged.Records, merged.Jobs, whole.Records, whole.Jobs)
	}
}

// TestCollectFromScratchStream drives Collect from a stream that reuses
// one scratch record and refills its TRES maps and Flags slice in place
// between rows — the "valid until the next row" contract of colstore.Cursor
// and slurm.ByteRecordReader. Every collector must copy what it retains,
// so the bundle must equal one collected from owned clones of the rows.
func TestCollectFromScratchStream(t *testing.T) {
	rows := goldenTrace(t)
	scratch := slurm.Record{TRESReq: slurm.TRES{}, TRESUsageInAve: slurm.TRES{}}
	seq := slurm.RecordSeq(func(yield func(*slurm.Record, error) bool) {
		for i := range rows {
			req, usage, flags := scratch.TRESReq, scratch.TRESUsageInAve, scratch.Flags
			scratch = rows[i]
			clear(req)
			maps.Copy(req, rows[i].TRESReq)
			clear(usage)
			maps.Copy(usage, rows[i].TRESUsageInAve)
			scratch.TRESReq, scratch.TRESUsageInAve = req, usage
			scratch.Flags = append(flags[:0], rows[i].Flags...)
			if !yield(&scratch, nil) {
				return
			}
		}
	})
	got, err := Collect(seq, 0)
	if err != nil {
		t.Fatal(err)
	}
	owned := make([]slurm.Record, len(rows))
	for i := range rows {
		owned[i] = rows[i].Clone()
	}
	want, err := Collect(recordSeq(owned), 0)
	if err != nil {
		t.Fatal(err)
	}
	gs, ws := bundleSurfaces(t, got), bundleSurfaces(t, want)
	for k := range ws {
		if gs[k] != ws[k] {
			t.Errorf("%s from a scratch stream diverges:\n got %s\nwant %s", k, gs[k], ws[k])
		}
	}
}

func TestCollectPropagatesTerminalError(t *testing.T) {
	boom := slurm.RecordSeq(func(yield func(*slurm.Record, error) bool) {
		r := fixedJobs()[0]
		if !yield(&r, nil) {
			return
		}
		yield(nil, errSentinel)
	})
	b, err := Collect(boom, 0)
	if err != errSentinel {
		t.Errorf("Collect error = %v, want sentinel", err)
	}
	if b != nil {
		t.Error("Collect returned a bundle beside its error")
	}
}

var errSentinel = &testError{}

type testError struct{}

func (*testError) Error() string { return "sentinel" }

// TestTimelineCollectorCache pins that Result is cached until new data
// arrives.
func TestTimelineCollectorCache(t *testing.T) {
	jobs := fixedJobs()
	c := NewTimelineCollector(time.Hour)
	for i := range jobs {
		c.Observe(&jobs[i])
	}
	first := c.Result()
	second := c.Result()
	if len(first) == 0 || &first[0] != &second[0] {
		t.Error("Result not cached across calls")
	}
	c.Observe(&jobs[0])
	third := c.Result()
	if len(third) != 0 && len(first) != 0 && &third[0] == &first[0] {
		t.Error("cache not invalidated by Observe")
	}
	if len(first) < 2 || first[1].At.Sub(first[0].At) != time.Hour {
		t.Errorf("points are not a bucket (1h) apart: %v", first)
	}
}

// TestNodeSecondsIsExactInAnyOrder: the node-hour sums the reclaimable
// and class collectors fold are the same value whatever order and
// grouping the records arrive in — one pass, reversed, or chunk shards
// merged in either direction — as ingest widths split them. Float sums
// of nodes·hours moved in the last place between widths.
func TestNodeSecondsIsExactInAnyOrder(t *testing.T) {
	type term struct {
		nodes int64
		d     time.Duration
	}
	var terms []term
	var wantNS big.Int
	for i := range 500 {
		tm := term{int64(1 + i*37%9408), time.Duration(i) * 7919 * time.Millisecond / 3}
		if i%5 == 0 {
			tm.d = -tm.d // a negative term borrows from the whole seconds
		}
		terms = append(terms, tm)
		wantNS.Add(&wantNS, new(big.Int).Mul(big.NewInt(tm.nodes), big.NewInt(int64(tm.d))))
	}
	var forward, backward nodeSeconds
	for i := range terms {
		forward.add(terms[i].nodes, terms[i].d)
		back := terms[len(terms)-1-i]
		backward.add(back.nodes, back.d)
	}
	var chunks []nodeSeconds
	for lo := 0; lo < len(terms); lo += 77 {
		var c nodeSeconds
		for _, tm := range terms[lo:min(lo+77, len(terms))] {
			c.add(tm.nodes, tm.d)
		}
		chunks = append(chunks, c)
	}
	var merged, mergedBack nodeSeconds
	for i := range chunks {
		merged.merge(chunks[i])
		mergedBack.merge(chunks[len(chunks)-1-i])
	}
	for name, got := range map[string]nodeSeconds{"backward": backward, "merged": merged, "merged backward": mergedBack} {
		if got != forward {
			t.Errorf("%s sum %+v != one forward pass %+v", name, got, forward)
		}
	}
	if forward.ns < 0 || forward.ns >= int64(time.Second) {
		t.Errorf("sub-second remainder %d outside [0, 1e9)", forward.ns)
	}
	gotNS := new(big.Int).Mul(big.NewInt(forward.sec), big.NewInt(int64(time.Second)))
	if gotNS.Add(gotNS, big.NewInt(forward.ns)); gotNS.Cmp(&wantNS) != 0 {
		t.Errorf("sum is %v node-ns, want %v", gotNS, &wantNS)
	}

	// A hundred full-machine Frontier days: past where one node·ns int64
	// would have wrapped, and still exact.
	var days nodeSeconds
	for range 100 {
		days.add(9408, 24*time.Hour)
	}
	if got, want := days.hours(), float64(100*9408*24); got != want {
		t.Errorf("100 full-machine days sum to %v node-hours, want %v", got, want)
	}
}
