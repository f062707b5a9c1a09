package colstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"slurmsight/internal/slurm"
)

// genRecords builds n records exercising every column, with
// nanosecond-precision timestamps (the text format truncates to seconds;
// the columnar format must not).
func genRecords(seed int64, n int, month time.Time) []slurm.Record {
	rng := rand.New(rand.NewSource(seed))
	users := []string{"alice", "bob", "carol", "dave"}
	accounts := []string{"mat187", "bio042", "phy301"}
	parts := []string{"batch", "debug", "gpu"}
	states := []slurm.State{
		slurm.StateCompleted, slurm.StateFailed, slurm.StateCancelled,
		slurm.StateTimeout, slurm.StateRunning,
	}
	recs := make([]slurm.Record, n)
	for i := range recs {
		sub := month.Add(time.Duration(rng.Int63n(int64(27 * 24 * time.Hour))))
		sub = sub.Add(time.Duration(rng.Int63n(int64(time.Second)))) // sub-second part
		start := sub.Add(time.Duration(rng.Int63n(int64(3 * time.Hour))))
		r := slurm.Record{
			ID:        slurm.NewJobID(100000 + int64(i)),
			JobName:   fmt.Sprintf("job_%d", rng.Intn(40)),
			User:      users[rng.Intn(len(users))],
			UID:       int64(1000 + rng.Intn(4)),
			Group:     "users",
			Account:   accounts[rng.Intn(len(accounts))],
			Cluster:   "frontier",
			Partition: parts[rng.Intn(len(parts))],
			Submit:    sub,
			Start:     start,
			End:       start.Add(time.Duration(rng.Int63n(int64(2 * time.Hour)))),
			Eligible:  sub,
			Elapsed:   time.Duration(rng.Int63n(int64(2 * time.Hour))),
			Timelimit: 2 * time.Hour,
			NNodes:    int64(1 + rng.Intn(128)),
			NCPUs:     int64(1 + rng.Intn(8192)),
			NTasks:    int64(1 + rng.Intn(1024)),
			ReqNodes:  int64(1 + rng.Intn(128)),
			ReqCPUs:   int64(1 + rng.Intn(8192)),
			ReqMem:    int64(rng.Intn(512)) << 30,
			State:     states[rng.Intn(len(states))],
			QOS:       "normal",
			Priority:  int64(rng.Intn(200000)),
			NodeList:  fmt.Sprintf("node[%d-%d]", i%100, i%100+3),
			WorkDir:   "/lustre/project",
			Reason:    "None",
			ExitCode:  rng.Intn(3),
			TotalCPU:  time.Duration(rng.Int63n(int64(time.Hour))),
			Restarts:  int64(rng.Intn(2)),
		}
		if rng.Intn(2) == 0 {
			r.ReqMemPerCPU = true
		}
		if rng.Intn(3) == 0 {
			r.Flags = []string{slurm.FlagBackfill}
		} else {
			r.Flags = []string{slurm.FlagMain}
		}
		if rng.Intn(2) == 0 {
			r.TRESReq = slurm.TRES{"cpu": r.NCPUs, "node": r.NNodes}
			r.TRESUsageInAve = slurm.TRES{"cpu": r.NCPUs * 9 / 10}
		}
		if rng.Intn(4) == 0 {
			r.Start, r.End = time.Time{}, time.Time{} // pending-style zero times
			r.State = slurm.StatePending
		}
		if rng.Intn(5) == 0 { // a numbered step row
			r.ID = r.ID.WithStep(int64(rng.Intn(8)))
		}
		recs[i] = r
	}
	return recs
}

func writeTemp(t *testing.T, shards []ShardInput) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.colstore")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	err = Write(f, shards)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func monthStart(y int, m time.Month) time.Time {
	return time.Date(y, m, 1, 0, 0, 0, 0, time.UTC)
}

// encodeLines renders records through the curated text encoding, the
// comparison baseline shared with the pipe-text store.
func encodeLines(t *testing.T, recs []slurm.Record) []string {
	t.Helper()
	fields := slurm.SelectedNames()
	out := make([]string, len(recs))
	for i := range recs {
		line, err := slurm.EncodeRecord(&recs[i], fields)
		if err != nil {
			t.Fatalf("encode record %d: %v", i, err)
		}
		out[i] = line
	}
	return out
}

func TestRoundTripAllColumns(t *testing.T) {
	jan := genRecords(1, 400, monthStart(2024, time.January))
	feb := genRecords(2, 250, monthStart(2024, time.February))
	path := writeTemp(t, []ShardInput{
		{Year: 2024, Mon: time.January, Records: jan},
		{Year: 2024, Mon: time.February, Records: feb},
	})
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if len(f.Shards()) != 2 {
		t.Fatalf("shards = %d, want 2", len(f.Shards()))
	}
	for si, want := range [][]slurm.Record{jan, feb} {
		sh := f.Shards()[si]
		if sh.Rows() != len(want) {
			t.Fatalf("shard %d rows = %d, want %d", si, sh.Rows(), len(want))
		}
		got, err := readRows(sh, AllColumns)
		if err != nil {
			t.Fatal(err)
		}
		wantLines, gotLines := encodeLines(t, want), encodeLines(t, got)
		for i := range wantLines {
			if wantLines[i] != gotLines[i] {
				t.Fatalf("shard %d row %d text mismatch:\n got %s\nwant %s",
					si, i, gotLines[i], wantLines[i])
			}
		}
		// Text encoding truncates timestamps to seconds; verify the
		// columnar store kept full nanosecond precision.
		for i := range want {
			if !got[i].Submit.Equal(want[i].Submit) || !got[i].Start.Equal(want[i].Start) ||
				!got[i].End.Equal(want[i].End) || !got[i].Eligible.Equal(want[i].Eligible) {
				t.Fatalf("shard %d row %d lost time precision: %v vs %v",
					si, i, got[i].Submit, want[i].Submit)
			}
		}
	}
}

func TestFooterMetadata(t *testing.T) {
	recs := genRecords(3, 100, monthStart(2025, time.March))
	path := writeTemp(t, []ShardInput{{Year: 2025, Mon: time.March, Records: recs}})
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sh := f.Shards()[0]
	if sh.Year() != 2025 || sh.Mon() != time.March {
		t.Errorf("month = %d-%d", sh.Year(), sh.Mon())
	}
	if sh.Sorted() {
		t.Error("random records reported sorted")
	}
	min, max, ok := sh.SubmitRange()
	if !ok {
		t.Fatal("SubmitRange not ok")
	}
	for i := range recs {
		if recs[i].Submit.Before(min) || recs[i].Submit.After(max) {
			t.Fatalf("row %d submit %v outside footer range [%v, %v]", i, recs[i].Submit, min, max)
		}
	}
	for _, name := range AllColumns.Names() {
		if sh.ColumnBytes(name) == 0 {
			t.Errorf("shard has no %s column", name)
		}
	}
}

func TestSortedFlagRecorded(t *testing.T) {
	recs := genRecords(4, 64, monthStart(2024, time.May))
	// Sort into emission order so the writer records sorted=true.
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0 && recordCompare(&recs[j], &recs[j-1]) < 0; j-- {
			recs[j], recs[j-1] = recs[j-1], recs[j]
		}
	}
	path := writeTemp(t, []ShardInput{{Year: 2024, Mon: time.May, Records: recs}})
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if !f.Shards()[0].Sorted() {
		t.Error("sorted shard not flagged sorted in footer")
	}
}

func TestEmptyShardAndEmptyFile(t *testing.T) {
	path := writeTemp(t, []ShardInput{{Year: 2024, Mon: time.June}})
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sh := f.Shards()[0]
	if sh.Rows() != 0 {
		t.Errorf("rows = %d", sh.Rows())
	}
	if _, _, ok := sh.SubmitRange(); ok {
		t.Error("empty shard claims a submit range")
	}
	recs, err := readRows(sh, AllColumns)
	if err != nil || len(recs) != 0 {
		t.Errorf("decode empty = %d recs, %v", len(recs), err)
	}

	empty := writeTemp(t, nil)
	g, err := Open(empty)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if len(g.Shards()) != 0 {
		t.Errorf("empty file has %d shards", len(g.Shards()))
	}
}

func TestColumnProjectionReadsOnlySelectedBytes(t *testing.T) {
	recs := genRecords(5, 300, monthStart(2024, time.July))
	path := writeTemp(t, []ShardInput{{Year: 2024, Mon: time.July, Records: recs}})
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sh := f.Shards()[0]
	before := f.Stats()

	proj, err := ColumnsFor("User", "State")
	if err != nil {
		t.Fatal(err)
	}
	got, err := readRows(sh, proj)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i].User != recs[i].User || got[i].State != recs[i].State {
			t.Fatalf("row %d projection mismatch", i)
		}
		if got[i].NCPUs != 0 || !got[i].Submit.IsZero() {
			t.Fatalf("row %d has unprojected fields populated", i)
		}
	}
	after := f.Stats()
	if n := after.ColumnsRead - before.ColumnsRead; n != 2 {
		t.Errorf("ColumnsRead delta = %d, want 2", n)
	}
	wantBytes := sh.ColumnBytes("User") + sh.ColumnBytes("State")
	if n := after.BytesRead - before.BytesRead; n != wantBytes {
		t.Errorf("BytesRead delta = %d, want %d", n, wantBytes)
	}
	if st, _ := os.Stat(path); after.BytesRead >= st.Size() {
		t.Errorf("projected read touched %d of %d file bytes", after.BytesRead, st.Size())
	}
	if after.RowsDecoded-before.RowsDecoded != int64(len(recs)) {
		t.Errorf("RowsDecoded delta = %d", after.RowsDecoded-before.RowsDecoded)
	}
}

func TestColumnsFor(t *testing.T) {
	set, err := ColumnsFor("User", "jobid", " State ", "User")
	if err != nil {
		t.Fatal(err)
	}
	if cols := set.Names(); len(cols) != 3 || cols[0] != "JobID" { // pinned order: JobID first
		t.Errorf("cols = %v", cols)
	}
	set, err = ColumnsFor("Backfill")
	if cols := set.Names(); err != nil || len(cols) != 1 || cols[0] != "Flags" {
		t.Errorf("Backfill → %v, %v", cols, err)
	}
	if _, err := ColumnsFor("NoSuchField"); err == nil {
		t.Error("unknown field: want error")
	}
	// Every curated field must be backed by a column, and between them
	// they reach every column.
	if set, err := ColumnsFor(slurm.SelectedNames()...); err != nil || set != AllColumns {
		t.Errorf("full selection: %d of %d columns, %v", set.Len(), AllColumns.Len(), err)
	}
}

func corruptCopy(t *testing.T, path string, mutate func([]byte)) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mutate(data)
	out := filepath.Join(t.TempDir(), "corrupt.colstore")
	if err := os.WriteFile(out, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestOpenRejectsDamage(t *testing.T) {
	recs := genRecords(6, 120, monthStart(2024, time.August))
	path := writeTemp(t, []ShardInput{{Year: 2024, Mon: time.August, Records: recs}})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	footOff := binary.LittleEndian.Uint64(data[len(data)-trailerLen:])

	cases := []struct {
		name   string
		mutate func([]byte)
		trunc  int // bytes to cut from the end, 0 = none
		want   error
	}{
		{name: "version bump", mutate: func(b []byte) {
			binary.LittleEndian.PutUint16(b[len(headerMagic):], Version+1)
		}, want: ErrVersion},
		{name: "footer bit flip", mutate: func(b []byte) {
			b[footOff] ^= 0xFF
		}, want: ErrCorrupt},
		{name: "trailer magic", mutate: func(b []byte) {
			b[len(b)-1] ^= 0xFF
		}, want: ErrCorrupt},
		{name: "truncated mid-footer", trunc: trailerLen + 3, want: ErrCorrupt},
		{name: "truncated to header", trunc: len(data) - headerLen, want: ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := corruptCopy(t, path, func(b []byte) {
				if tc.mutate != nil {
					tc.mutate(b)
				}
			})
			if tc.trunc > 0 {
				full, _ := os.ReadFile(p)
				if err := os.WriteFile(p, full[:len(full)-tc.trunc], 0o644); err != nil {
					t.Fatal(err)
				}
			}
			f, err := Open(p)
			if err == nil {
				f.Close()
				t.Fatalf("Open succeeded on %s", tc.name)
			}
			if !errors.Is(err, tc.want) {
				t.Errorf("err = %v, want %v", err, tc.want)
			}
			if tc.want != ErrNotColstore && errors.Is(err, ErrNotColstore) {
				t.Errorf("%s misreported as not-colstore (would fall back to text)", tc.name)
			}
		})
	}
}

func TestNotColstoreFallbackSignal(t *testing.T) {
	p := filepath.Join(t.TempDir(), "dump.txt")
	if err := os.WriteFile(p, []byte("JobID|User|State\n1|alice|COMPLETED\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(p); !errors.Is(err, ErrNotColstore) {
		t.Errorf("text file: err = %v, want ErrNotColstore", err)
	}
	recs := genRecords(7, 10, monthStart(2024, time.September))
	bin := writeTemp(t, []ShardInput{{Year: 2024, Mon: time.September, Records: recs}})
	f, err := Open(bin)
	if err != nil {
		t.Fatalf("columnar file: %v", err)
	}
	f.Close()
}

func TestColumnChecksumCaughtOnDecode(t *testing.T) {
	recs := genRecords(8, 80, monthStart(2024, time.October))
	path := writeTemp(t, []ShardInput{{Year: 2024, Mon: time.October, Records: recs}})
	// Flip a byte inside the first column region (starts right after the
	// header): Open must succeed — regions are validated lazily — and the
	// cursor must fail with ErrCorrupt before it yields a row.
	p := corruptCopy(t, path, func(b []byte) { b[headerLen] ^= 0xFF })
	f, err := Open(p)
	if err != nil {
		t.Fatalf("Open should defer region validation, got %v", err)
	}
	defer f.Close()
	for range 2 { // the verdict is kept: the second scan fails like the first
		if recs, err := readRows(f.Shards()[0], AllColumns); !errors.Is(err, ErrCorrupt) || len(recs) != 0 {
			t.Errorf("scan of flipped column = %d rows, %v, want none and ErrCorrupt", len(recs), err)
		}
	}
	// A projection that avoids the damaged column still reads.
	user, _ := ColumnsFor("User")
	if got, err := readRows(f.Shards()[0], user); err != nil || len(got) != len(recs) {
		t.Errorf("undamaged column: %d of %d rows, %v", len(got), len(recs), err)
	}
}

func TestConcurrentDecodes(t *testing.T) {
	recs := genRecords(9, 200, monthStart(2024, time.November))
	path := writeTemp(t, []ShardInput{{Year: 2024, Mon: time.November, Records: recs}})
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sh := f.Shards()[0]
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		proj, _ := ColumnsFor("User", "Account")
		if i%2 == 0 {
			proj = AllColumns
		}
		go func() { // all eight race to load the shard's columns
			got, err := readRows(sh, proj)
			if err == nil && len(got) != len(recs) {
				err = fmt.Errorf("cursor yielded %d of %d rows", len(got), len(recs))
			}
			done <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestWriteIsDeterministic(t *testing.T) {
	recs := genRecords(10, 150, monthStart(2024, time.December))
	in := []ShardInput{{Year: 2024, Mon: time.December, Records: recs}}
	var a, b bytes.Buffer
	if err := Write(&a, in); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, in); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two writes of the same shards differ byte-for-byte")
	}
}

// recordCompare is the shard emission order sacct keeps: submit time,
// ties broken by sacct job-id order.
func recordCompare(a, b *slurm.Record) int {
	if !a.Submit.Equal(b.Submit) {
		if a.Submit.Before(b.Submit) {
			return -1
		}
		return 1
	}
	return slurm.CompareJobID(a.ID, b.ID)
}
