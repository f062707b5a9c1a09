package slurm

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// randomRecord synthesizes a record with randomized values in every field
// the wire format carries exactly (sub-second times and abbreviated big
// counts round only approximately and are fixed to exact forms here).
func randomRecord(rng *rand.Rand) *Record {
	base := time.Date(2023, 4, 1, 0, 0, 0, 0, time.UTC)
	submit := base.Add(time.Duration(rng.Intn(1<<22)) * time.Second)
	start := submit.Add(time.Duration(rng.Intn(1<<16)) * time.Second)
	elapsed := time.Duration(rng.Intn(1<<17)) * time.Second
	states := TerminalStates()
	r := &Record{
		ID:             NewJobID(int64(rng.Intn(1<<20) + 1)),
		JobName:        "job_" + string(rune('a'+rng.Intn(26))),
		User:           "u" + string(rune('0'+rng.Intn(10))),
		UID:            int64(rng.Intn(9_999)),
		Group:          "grp",
		Account:        "prj",
		Cluster:        "frontier",
		Partition:      "batch",
		Submit:         submit,
		Eligible:       submit,
		Start:          start,
		End:            start.Add(elapsed),
		Elapsed:        elapsed,
		Timelimit:      elapsed + time.Duration(rng.Intn(1<<16))*time.Second,
		NNodes:         int64(rng.Intn(9_408) + 1),
		NCPUs:          int64(rng.Intn(9_999) + 1),
		NTasks:         int64(rng.Intn(9_999)),
		ReqNodes:       int64(rng.Intn(9_408) + 1),
		ReqCPUs:        int64(rng.Intn(9_999) + 1),
		ReqMem:         int64(rng.Intn(512)) << 30,
		State:          states[rng.Intn(len(states))],
		ExitCode:       rng.Intn(128),
		Priority:       int64(rng.Intn(9_999)),
		QOS:            "normal",
		QOSReq:         "normal",
		Flags:          []string{FlagMain},
		Comment:        "class",
		WorkDir:        "/lustre/orion/prj/scratch",
		TRESReq:        TRES{"cpu": int64(rng.Intn(1000) + 1), "node": int64(rng.Intn(100) + 1)},
		TRESUsageInAve: TRES{},
		Restarts:       int64(rng.Intn(3)),
	}
	if rng.Intn(3) == 0 {
		r.ID = r.ID.WithStep(int64(rng.Intn(40)))
	}
	if rng.Intn(4) == 0 {
		r.Flags = []string{FlagBackfill}
	}
	return r
}

// TestPropertyEncodeDecodeRoundTrip feeds randomized records through the
// full 60-field pipe encoding and back, requiring exact recovery of every
// exactly-representable field.
func TestPropertyEncodeDecodeRoundTrip(t *testing.T) {
	fields := SelectedNames()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		want := randomRecord(rng)
		line, err := EncodeRecord(want, fields)
		if err != nil {
			t.Fatalf("seed %d: encode: %v", seed, err)
		}
		got, err := decodeLine(line, fields)
		if err != nil {
			t.Fatalf("seed %d: decode: %v\nline: %s", seed, err, line)
		}
		type exact struct {
			id                 JobID
			user               string
			state              State
			nnodes, ncpus      int64
			submit, start, end time.Time
			elapsed, limit     time.Duration
			priority, restarts int64
			exit               int
			backfill           bool
			reqNodes, reqCPUs  int64
		}
		a := exact{want.ID, want.User, want.State, want.NNodes, want.NCPUs,
			want.Submit, want.Start, want.End, want.Elapsed, want.Timelimit,
			want.Priority, want.Restarts, want.ExitCode, want.Backfilled(),
			want.ReqNodes, want.ReqCPUs}
		b := exact{got.ID, got.User, got.State, got.NNodes, got.NCPUs,
			got.Submit, got.Start, got.End, got.Elapsed, got.Timelimit,
			got.Priority, got.Restarts, got.ExitCode, got.Backfilled(),
			got.ReqNodes, got.ReqCPUs}
		if a != b {
			t.Fatalf("seed %d: mismatch:\n got %+v\nwant %+v\nline: %s", seed, b, a, line)
		}
		if got.TRESReq.Get("cpu") != want.TRESReq.Get("cpu") {
			t.Fatalf("seed %d: TRES lost", seed)
		}
		// Encoding the decoded record reproduces the identical line.
		line2, err := EncodeRecord(got, fields)
		if err != nil {
			t.Fatalf("seed %d: re-encode: %v", seed, err)
		}
		if line2 != line {
			t.Fatalf("seed %d: encoding not idempotent:\n%s\n%s", seed, line, line2)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
