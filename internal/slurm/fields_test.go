package slurm

import (
	"strings"
	"testing"
	"time"
)

// Table 1 reproduction: the study selects a curated subset (the paper cites
// "50+", §3.1 says 60) of the 118 available accounting columns, grouped
// into nine categories.
func TestTable1FieldSelection(t *testing.T) {
	sel := SelectedNames()
	if len(sel) != 60 {
		t.Errorf("selected fields = %d, want 60", len(sel))
	}
	all := AllFieldNames()
	if len(all) != 118 {
		t.Errorf("field universe = %d, want 118", len(all))
	}
	if got := len(Categories()); got != 9 {
		t.Errorf("categories = %d, want 9", got)
	}
	// Every selected field belongs to exactly one Table 1 category.
	perCat := 0
	for _, cat := range Categories() {
		perCat += len(FieldsInCategory(cat))
	}
	if perCat != len(sel) {
		t.Errorf("category partition covers %d fields, want %d", perCat, len(sel))
	}
	// The paper's example of an excluded redundant field.
	if _, ok := FieldByName("ElapsedRaw"); ok {
		t.Error("ElapsedRaw should be excluded as redundant")
	}
	seen := map[string]bool{}
	for _, n := range all {
		key := strings.ToLower(n)
		if seen[key] {
			t.Errorf("duplicate field name %q in universe", n)
		}
		seen[key] = true
	}
}

func TestTable1PaperFieldsPresent(t *testing.T) {
	// Every field Table 1 names must resolve.
	for _, name := range []string{
		"JobID", "Partition", "Reservation", "ReservationID",
		"Submit", "Start", "End", "Elapsed", "Timelimit",
		"NNodes", "NCPUS", "NTasks", "ReqMem", "ReqGRES", "Layout",
		"VMSize", "AveCPU", "MaxRSS", "TotalCPU", "NodeList", "ConsumedEnergy",
		"WorkDir", "AveDiskRead", "AveDiskWrite", "MaxDiskRead", "MaxDiskWrite",
		"State", "ExitCode", "Reason", "Suspended", "Restarts", "Constraints",
		"Priority", "Eligible", "QOS", "QOSReq", "Flags", "TRESUsageInAve", "ReqTRES",
		"Backfill", "Dependency", "ArrayJobID",
		"Comment", "SystemComment", "AdminComment",
	} {
		if _, ok := FieldByName(name); !ok {
			t.Errorf("Table 1 field %q missing from catalogue", name)
		}
	}
}

func TestFieldLookupCaseInsensitive(t *testing.T) {
	for _, name := range []string{"jobid", "JOBID", " JobID "} {
		if _, ok := FieldByName(name); !ok {
			t.Errorf("FieldByName(%q) failed", name)
		}
	}
	if _, ok := FieldByName("NoSuchField"); ok {
		t.Error("FieldByName(NoSuchField) should fail")
	}
}

func sampleRecord() *Record {
	return &Record{
		ID:             NewJobID(123456),
		JobName:        "gromacs_prod",
		User:           "u0042",
		Account:        "mat187",
		Cluster:        "frontier",
		Partition:      "batch",
		Submit:         time.Date(2024, 3, 1, 8, 0, 0, 0, time.UTC),
		Start:          time.Date(2024, 3, 1, 9, 30, 0, 0, time.UTC),
		End:            time.Date(2024, 3, 1, 11, 0, 0, 0, time.UTC),
		Elapsed:        90 * time.Minute,
		Timelimit:      2 * time.Hour,
		NNodes:         128,
		NCPUs:          7168,
		NTasks:         1024,
		ReqMem:         512 << 30,
		State:          StateCompleted,
		QOS:            "normal",
		Priority:       125000,
		Flags:          []string{FlagBackfill},
		TRESReq:        TRES{"cpu": 7168, "node": 128},
		TRESUsageInAve: TRES{"cpu": 7000},
	}
}

// decodeLine decodes one data row under a field selection through the
// reader: the header it implies, then the row. A blank row is io.EOF.
func decodeLine(line string, fields []string) (*Record, error) {
	br, err := NewByteRecordReader(strings.NewReader(Header(fields) + "\n" + line + "\n"))
	if err != nil {
		return nil, err
	}
	return br.Next()
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := sampleRecord()
	fields := SelectedNames()
	line, err := EncodeRecord(r, fields)
	if err != nil {
		t.Fatalf("EncodeRecord: %v", err)
	}
	if strings.Count(line, Separator) != len(fields)-1 {
		t.Fatalf("separator count = %d, want %d", strings.Count(line, Separator), len(fields)-1)
	}
	got, err := decodeLine(line, fields)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.ID != r.ID || got.User != r.User || got.State != r.State ||
		got.NNodes != r.NNodes || !got.Submit.Equal(r.Submit) ||
		got.Elapsed != r.Elapsed || got.Timelimit != r.Timelimit ||
		!got.Backfilled() {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, r)
	}
	if got.TRESReq.Get("node") != 128 {
		t.Errorf("TRESReq lost: %v", got.TRESReq)
	}
}

func TestDecodeRecordErrors(t *testing.T) {
	fields := []string{"JobID", "State"}
	if _, err := decodeLine("123", fields); err == nil {
		t.Error("column mismatch: want error")
	}
	if _, err := decodeLine("123|NOT_A_STATE", fields); err == nil {
		t.Error("bad state: want error")
	}
	if _, err := decodeLine("abc|COMPLETED", fields); err == nil {
		t.Error("bad job id: want error")
	}
	if _, err := EncodeRecord(&Record{ID: NewJobID(1)}, []string{"Nope"}); err == nil {
		t.Error("unknown field: want error")
	}
}

func TestBackfillDerivedField(t *testing.T) {
	r := &Record{ID: NewJobID(1), Flags: []string{FlagMain}}
	f, _ := FieldByName("Backfill")
	if got := f.Get(r); got != "0" {
		t.Errorf("Backfill on SchedMain job = %q", got)
	}
	if err := f.SetBytes(r, []byte("1")); err != nil {
		t.Fatalf("SetBytes: %v", err)
	}
	if !r.Backfilled() {
		t.Error("SetBytes(1) did not add SchedBackfill flag")
	}
	if err := f.SetBytes(r, []byte("purple")); err == nil {
		t.Error("SetBytes(purple): want error")
	}
}

func TestRecordHelpers(t *testing.T) {
	r := sampleRecord()
	w, ok := r.WaitTime()
	if !ok || w != 90*time.Minute {
		t.Errorf("WaitTime = %v, %v; want 90m, true", w, ok)
	}
	if slack := r.WalltimeSlack(); slack != 30*time.Minute {
		t.Errorf("WalltimeSlack = %v, want 30m", slack)
	}
	if r.Year() != 2024 {
		t.Errorf("Year = %d", r.Year())
	}
	never := &Record{Submit: r.Submit}
	if _, ok := never.WaitTime(); ok {
		t.Error("WaitTime on never-started job: ok = true")
	}
}

func TestStateParsing(t *testing.T) {
	for _, s := range States() {
		got, err := ParseState(s.String())
		if err != nil || got != s {
			t.Errorf("ParseState(%q) = %v, %v", s.String(), got, err)
		}
	}
	got, err := ParseState("CANCELLED by 1234")
	if err != nil || got != StateCancelled {
		t.Errorf("ParseState(CANCELLED by uid) = %v, %v", got, err)
	}
	if _, err := ParseState("EXPLODED"); err == nil {
		t.Error("ParseState(EXPLODED): want error")
	}
	if !StateCompleted.Success() || StateFailed.Success() {
		t.Error("Success classification wrong")
	}
	if StatePending.Terminal() || !StateTimeout.Terminal() {
		t.Error("Terminal classification wrong")
	}
	if len(TerminalStates()) >= len(States()) {
		t.Error("TerminalStates should be a strict subset")
	}
}

func TestTRESRoundTrip(t *testing.T) {
	in := "cpu=56,gres/gpu=8,mem=512G,node=2"
	tr, err := ParseTRES(in)
	if err != nil {
		t.Fatalf("ParseTRES: %v", err)
	}
	if tr.Get("mem") != 512<<30 || tr.Get("gres/gpu") != 8 {
		t.Errorf("values: %v", tr)
	}
	if got := tr.String(); got != in {
		t.Errorf("String() = %q, want %q", got, in)
	}
	clone := tr.Clone()
	clone["cpu"] = 1
	if tr.Get("cpu") == 1 {
		t.Error("Clone aliases original")
	}
	if _, err := ParseTRES("oops"); err == nil {
		t.Error("ParseTRES(oops): want error")
	}
	empty, err := ParseTRES("")
	if err != nil || len(empty) != 0 || empty.String() != "" {
		t.Errorf("empty TRES: %v, %v", empty, err)
	}
}
