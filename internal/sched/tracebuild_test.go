package sched_test

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"
	"unsafe"

	"slurmsight/internal/sacct"
	"slurmsight/internal/sched"
	"slurmsight/internal/slurm"
)

// TestTraceBuildGoldenDigest pins the bytes of a trace build — Run with
// steps, Ingest, Finalize, DumpBinary — over the golden Frontier trace.
// The constant is the sha256 of the dump at the commit before Result
// stopped holding records, when Ingest copied Result.Jobs and Result.Steps:
// the record stream must put the same 35,009 rows in the same shards.
func TestTraceBuildGoldenDigest(t *testing.T) {
	res, err := sched.GoldenFrontierSim(t).Run(sched.GoldenFrontierTrace(t), sched.Options{EmitSteps: true})
	if err != nil {
		t.Fatal(err)
	}
	st := sacct.NewStore()
	if err := st.Ingest(res); err != nil {
		t.Fatal(err)
	}
	st.Finalize()
	h := sha256.New()
	if err := st.DumpBinary(h); err != nil {
		t.Fatal(err)
	}
	const want = "c8eddf71c1202aad4b2684294ad501a25d41092f54f5d5eb40de204a388f0f81"
	if got := hex.EncodeToString(h.Sum(nil)); st.Len() != 35009 || got != want {
		t.Errorf("golden trace build dumps %d rows to sha256 %s, want 35009 rows and %s", st.Len(), got, want)
	}
}

// TestTraceBuildAllocationCeiling is TestRunAllocationCeiling's twin for
// the trace build: Run with steps and Ingest together allocate, per stored
// row, no more than the row itself — one Record in its shard plus its two
// TRES maps, its flag list and its strings. A second resident copy of the
// rows (Result.Jobs and Result.Steps once were one: 2,507 B per row) cannot
// come back under this ceiling. Measured 956 B per row against a 760 B
// Record.
func TestTraceBuildAllocationCeiling(t *testing.T) {
	const maxBytesPerRow = int(unsafe.Sizeof(slurm.Record{})) + 400
	reqs := sched.GoldenFrontierTrace(t)
	sim := sched.GoldenFrontierSim(t)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := sim.Run(reqs, sched.Options{EmitSteps: true})
	if err != nil {
		t.Fatal(err)
	}
	st := sacct.NewStore()
	if err := st.Ingest(res); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perRow := int(after.TotalAlloc-before.TotalAlloc) / st.Len()
	t.Logf("%d rows: %d B allocated per stored row (a Record is %d B)", st.Len(), perRow, unsafe.Sizeof(slurm.Record{}))
	if !sched.RaceEnabled && perRow > maxBytesPerRow {
		t.Errorf("trace build allocated %d B per stored row, ceiling %d", perRow, maxBytesPerRow)
	}
}
