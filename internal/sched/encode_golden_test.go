package sched

import (
	"hash/fnv"
	"testing"

	"slurmsight/internal/slurm"
)

// goldenFrontierRecords simulates the TestGoldenFrontierMixed workload
// and returns its job records followed by its step records: 35,009 rows
// that between them reach every formatter of the text emit plane (array
// and step ids, unknown timestamps, multi-day durations, fractional
// memory sizes, TRES maps, flag lists).
func goldenFrontierRecords(t *testing.T) []slurm.Record {
	t.Helper()
	res, err := goldenFrontierSim(t).Run(goldenFrontierTrace(t), Options{EmitSteps: true})
	if err != nil {
		t.Fatal(err)
	}
	jobs, steps := res.Collect()
	return append(jobs, steps...)
}

// TestEncodeGoldenDigest pins the bytes of the text emit plane: the
// golden Frontier records under the full selection, header first, one
// "\n" after every line. The constant was recorded at the commit before
// the Append family existed, from slurm.Header and the []string-and-Join
// slurm.EncodeRecord, so it is that encoder's output the Encoder must
// reproduce.
func TestEncodeGoldenDigest(t *testing.T) {
	recs := goldenFrontierRecords(t)
	enc, err := slurm.NewEncoder(slurm.SelectedNames())
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	buf := append(enc.AppendHeader(nil), '\n')
	for i := range recs {
		buf = append(enc.AppendRecord(buf, &recs[i]), '\n')
		if len(buf) > 1<<16 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	const want = 0xf8e83fc2d803440c
	if got := h.Sum64(); len(recs) != 35009 || got != want {
		t.Errorf("golden trace encodes to %#x over %d rows, want %#x over 35009", got, len(recs), uint64(want))
	}
}

// TestEncoderZeroAllocs is the emit plane's allocation pin, the mirror
// of slurm's TestByteRecordReaderZeroAllocs: appending a row of the full
// selection into a buffer with room for it allocates nothing. One run is
// a pass over every golden Frontier record, so the count is exact — a
// single allocation anywhere in the 35,009 rows fails it.
func TestEncoderZeroAllocs(t *testing.T) {
	recs := goldenFrontierRecords(t)
	enc, err := slurm.NewEncoder(slurm.SelectedNames())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 1<<12)
	allocs := testing.AllocsPerRun(1, func() {
		for i := range recs {
			buf = enc.AppendRecord(buf[:0], &recs[i])
		}
	})
	if allocs != 0 || cap(buf) != 1<<12 {
		t.Errorf("AppendRecord: %v allocations over %d rows (buffer cap %d), want 0", allocs, len(recs), cap(buf))
	}
}
