package sched

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"slurmsight/internal/slurm"
)

// TestSimulatorRunsOnce pins the single-run rule: statistics, usage and
// sequence numbers are the run's own, so a second Run on one Simulator is
// refused — it used to return doubled counts with a nil error — and the
// attempt leaves the first Result as it was.
func TestSimulatorRunsOnce(t *testing.T) {
	sim := goldenFrontierSim(t)
	res, err := sim.Run(goldenFrontierTrace(t), Options{EmitSteps: true})
	if err != nil {
		t.Fatal(err)
	}
	stats, outcomes := res.Stats, slices.Collect(res.Outcomes)
	jobs, steps, _ := goldenDigest(t, res)

	again, err := sim.Run(goldenFrontierTrace(t), Options{EmitSteps: true})
	if again != nil || err == nil || !strings.Contains(err.Error(), "simulator already ran; build a new one") {
		t.Fatalf("second Run = %v, %v; want the already-ran error", again, err)
	}
	if res.Stats != stats || !reflect.DeepEqual(slices.Collect(res.Outcomes), outcomes) {
		t.Error("the refused Run changed the first result's stats or outcomes")
	}
	if j, s, _ := goldenDigest(t, res); j != jobs || s != steps {
		t.Error("the refused Run changed the first result's record stream")
	}
}

// TestRecordsStreamRepeatsAndRowsKeep pins the stream's two promises:
// every iteration yields the same rows, and a row the consumer copied out
// of the reused scratch — struct, TRES maps, Flags — is its own: later
// yields do not reach it.
func TestRecordsStreamRepeatsAndRowsKeep(t *testing.T) {
	res, err := goldenFrontierSim(t).Run(goldenFrontierTrace(t), Options{EmitSteps: true})
	if err != nil {
		t.Fatal(err)
	}
	fields := slurm.SelectedNames()
	encode := func(r *slurm.Record) string {
		line, err := slurm.EncodeRecord(r, fields)
		if err != nil {
			t.Fatal(err)
		}
		return line
	}
	var kept []slurm.Record
	var lines []string
	for rec := range res.Records {
		kept = append(kept, *rec)
		lines = append(lines, encode(rec))
	}
	if len(kept) != res.Len()+res.StepRows() || len(kept) != 35009 {
		t.Fatalf("stream yielded %d rows for %d jobs and %d steps", len(kept), res.Len(), res.StepRows())
	}
	for i := range kept {
		if got := encode(&kept[i]); got != lines[i] {
			t.Fatalf("kept row %d changed after later yields:\n got %s\nwant %s", i, got, lines[i])
		}
	}
	// No two kept rows share a map or a flag list, whatever they hold.
	seen := map[uintptr]int{}
	for i := range kept {
		ptrs := []uintptr{reflect.ValueOf(kept[i].TRESReq).Pointer(), reflect.ValueOf(kept[i].TRESUsageInAve).Pointer()}
		if len(kept[i].Flags) > 0 {
			ptrs = append(ptrs, reflect.ValueOf(kept[i].Flags).Pointer())
		}
		for _, p := range ptrs {
			if j, dup := seen[p]; dup || p == 0 {
				t.Fatalf("row %d shares a TRES map or its Flags with row %d (%#x)", i, j, p)
			}
			seen[p] = i
		}
	}
	i := 0
	for rec := range res.Records {
		if got := encode(rec); got != lines[i] {
			t.Fatalf("second iteration differs at row %d:\n got %s\nwant %s", i, got, lines[i])
		}
		i++
	}
	if i != len(lines) {
		t.Fatalf("second iteration yielded %d rows, first %d", i, len(lines))
	}
}

// TestJobRecordsSplitAnywhere: the stream of any split of the jobs into
// ranges, concatenated, is Records row for row, steps on and off — each
// job reseeds its own generator, so a range streams without the jobs in
// front of it.
func TestJobRecordsSplitAnywhere(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, steps := range []bool{true, false} {
		res, err := goldenFrontierSim(t).Run(goldenFrontierTrace(t), Options{EmitSteps: steps})
		if err != nil {
			t.Fatal(err)
		}
		var want []slurm.Record
		for rec := range res.Records {
			want = append(want, *rec)
		}
		for trial := 0; trial < 4; trial++ {
			cuts := []int{0, res.Len()}
			for range 1 + rng.Intn(12) {
				cuts = append(cuts, rng.Intn(res.Len()+1))
			}
			slices.Sort(cuts)
			var got []slurm.Record
			for k := 1; k < len(cuts); k++ {
				for rec := range res.JobRecords(cuts[k-1], cuts[k]) {
					got = append(got, *rec)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("steps %v, cuts %v: %d rows, Records has %d", steps, cuts, len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("steps %v, cuts %v: row %d differs from Records':\n got %+v\nwant %+v", steps, cuts, i, got[i], want[i])
				}
			}
		}
	}
}
