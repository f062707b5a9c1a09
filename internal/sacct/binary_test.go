package sacct

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"slurmsight/internal/obs"
	"slurmsight/internal/sacct/colstore"
	"slurmsight/internal/slurm"
)

// dumpBinary writes st to a temp columnar file.
func dumpBinary(t *testing.T, st *Store) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.colstore")
	if err := st.DumpBinaryFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// queryText renders a query as pipe text, the byte-level comparison
// baseline between stores.
func queryText(t *testing.T, st *Store, q Query) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := st.Write(&buf, q); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestBinaryRoundTripQueryIdentical(t *testing.T) {
	st, _ := buildStore(t, 40) // two month shards, jobs + steps
	bin, err := OpenBinary(dumpBinary(t, st))
	if err != nil {
		t.Fatal(err)
	}
	defer bin.Close()

	if bin.Len() != st.Len() {
		t.Fatalf("lazy Len = %d, want %d", bin.Len(), st.Len())
	}
	if got, want := bin.Months(), st.Months(); len(got) != len(want) {
		t.Fatalf("months = %v, want %v", got, want)
	}

	queries := []Query{
		{},                   // jobs only, all fields
		{IncludeSteps: true}, // everything
		{Fields: []string{"JobID", "User", "State"}},
		{Fields: []string{"JobID", "Submit", "Elapsed"}, IncludeSteps: true},
		{Start: base.AddDate(0, 0, 10), End: base.AddDate(0, 0, 30)},
		{State: "COMPLETED", Fields: []string{"JobID", "NNodes", "ElapSED"}},
	}
	for i, q := range queries {
		want := queryText(t, st, q)
		got := queryText(t, bin, q)
		if got != want {
			t.Errorf("query %d output differs (%d vs %d bytes)", i, len(got), len(want))
		}
	}

	// Select paths must agree record-for-record too.
	a, err := st.Select(Query{IncludeSteps: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := bin.Select(Query{IncludeSteps: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("select sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || !a[i].Submit.Equal(b[i].Submit) || a[i].State != b[i].State {
			t.Fatalf("record %d differs after binary round trip", i)
		}
	}
}

// TestBinaryDumpRefusesTimesTheFormatCannotHold: a store holding a row
// that ends in 2400 once dumped it to a file that read the row back as
// ending in 1815, with a nil error. A store now refuses the row at the
// door: Add of it and a good row returns the error Seal gives and lands
// neither. The writer refuses it too, and a refused colstore.Write
// through writeFile leaves neither the file nor its temp file behind.
func TestBinaryDumpRefusesTimesTheFormatCannotHold(t *testing.T) {
	_, res := buildStore(t, 5)
	st := NewStore()
	if err := st.Ingest(res); err != nil {
		t.Fatal(err)
	}
	rows, gen := st.Len(), st.Generation()
	submit := time.Date(2024, 3, 4, 5, 6, 7, 0, time.UTC)
	good := slurm.Record{ID: slurm.NewJobID(999999998), User: "good", State: slurm.StateCompleted,
		Submit: submit, Start: submit, End: submit.Add(time.Hour)}
	far := good
	far.ID, far.User, far.End = slurm.NewJobID(999999999), "far", time.Date(2400, 1, 1, 0, 0, 0, 0, time.UTC)
	err := st.Add(good, far)
	if err == nil || !strings.Contains(err.Error(), "is outside what the format holds") {
		t.Fatalf("Add of a row ending in 2400: %v", err)
	}
	if st.Len() != rows || st.Generation() != gen {
		t.Errorf("refused Add left %d rows at generation %d, want %d at %d", st.Len(), st.Generation(), rows, gen)
	}
	path := filepath.Join(t.TempDir(), "store.colstore")
	err = writeFile(path, func(w io.Writer) error {
		return colstore.Write(w, []colstore.ShardInput{{Year: 2024, Mon: time.March, Records: []slurm.Record{good, far}}})
	})
	if err == nil || !strings.Contains(err.Error(), "is outside what the format holds") {
		t.Fatalf("writeFile of a row ending in 2400: %v", err)
	}
	for _, p := range []string{path, path + ".tmp"} {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s is left behind (%v)", filepath.Base(p), err)
		}
	}
}

func TestBinaryDumpFromBinaryStore(t *testing.T) {
	st, _ := buildStore(t, 5)
	bin, err := OpenBinary(dumpBinary(t, st))
	if err != nil {
		t.Fatal(err)
	}
	defer bin.Close()
	// Dumping a sealed store must lose nothing: the text dumps must be
	// byte-identical.
	var a, b bytes.Buffer
	if err := st.Dump(&a); err != nil {
		t.Fatal(err)
	}
	if err := bin.Dump(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("text dump differs between text- and binary-backed stores")
	}
}

func TestOpenFileAutoDetect(t *testing.T) {
	st, _ := buildStore(t, 3)
	dir := t.TempDir()

	textPath := filepath.Join(dir, "dump.txt")
	if err := st.DumpFile(textPath); err != nil {
		t.Fatal(err)
	}
	binPath := filepath.Join(dir, "dump.colstore")
	if err := st.DumpBinaryFile(binPath); err != nil {
		t.Fatal(err)
	}

	fromText, _, err := OpenFile(textPath)
	if err != nil {
		t.Fatal(err)
	}
	if fromText.bin != nil {
		t.Error("text dump opened as binary")
	}
	fromBin, _, err := OpenFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	defer fromBin.Close()
	if fromBin.bin == nil {
		t.Error("binary dump not detected")
	}
	if fromText.Len() != st.Len() || fromBin.Len() != st.Len() {
		t.Errorf("lens: text %d, bin %d, want %d", fromText.Len(), fromBin.Len(), st.Len())
	}

	// A corrupt binary file must error out, not fall back to text.
	data, _ := os.ReadFile(binPath)
	data[len(data)-1] ^= 0xFF
	bad := filepath.Join(dir, "bad.colstore")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenFile(bad); !errors.Is(err, colstore.ErrCorrupt) {
		t.Errorf("corrupt open = %v, want ErrCorrupt", err)
	}
}

func TestProjectedWriteReadsOnlySelectedColumns(t *testing.T) {
	st, _ := buildStore(t, 10)
	bin, err := OpenBinary(dumpBinary(t, st))
	if err != nil {
		t.Fatal(err)
	}
	defer bin.Close()

	reg := obs.NewRegistry()
	bin.Instrument(reg)
	columns, read := reg.Counter("colstore_columns_read_total"), reg.Counter("colstore_bytes_read_total")
	before := columns.Value()
	var buf bytes.Buffer
	if _, err := bin.Write(&buf, Query{Fields: []string{"User", "Elapsed"}}); err != nil {
		t.Fatal(err)
	}
	after := columns.Value()

	// The projection needs User + Elapsed + JobID (step detection):
	// three columns per shard, nothing else, and in particular far
	// fewer bytes than the whole file.
	months := int64(len(bin.Months()))
	if n := after - before; n != 3*months {
		t.Errorf("ColumnsRead delta = %d, want %d", n, 3*months)
	}
	if mapped := reg.Gauge("colstore_bytes_mapped").Value(); read.Value() <= 0 || read.Value() >= mapped {
		t.Errorf("projected write read %d of %d mapped bytes, want 0 < read < mapped", read.Value(), mapped)
	}

	// And the rendered text must still match the text store exactly.
	want := queryText(t, st, Query{Fields: []string{"User", "Elapsed"}})
	if buf.String() != want {
		t.Error("projected write output differs from text store")
	}

	// A full scan afterwards reads every column, and still leaves every
	// row where it was: on disk.
	if _, err := bin.Select(Query{IncludeSteps: true}); err != nil {
		t.Fatal(err)
	}
	if n, want := columns.Value()-after, int64(colstore.AllColumns.Len())*months; n != want {
		t.Errorf("full scan read %d columns, want %d", n, want)
	}
	for m, mo := range bin.months {
		if len(mo.mem) != 0 {
			t.Errorf("full scan left %d records of %s in memory", len(mo.mem), m)
		}
	}
}

func TestBinaryStoreInstrument(t *testing.T) {
	st, _ := buildStore(t, 3)
	bin, err := OpenBinary(dumpBinary(t, st))
	if err != nil {
		t.Fatal(err)
	}
	defer bin.Close()
	reg := obs.NewRegistry()
	bin.Instrument(reg)
	if _, err := bin.Select(Query{}); err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter("colstore_shards_opened_total").Value(); v == 0 {
		t.Error("shards-opened counter not incremented")
	}
	if v := reg.Counter("colstore_bytes_read_total").Value(); v == 0 {
		t.Error("bytes-read counter not incremented")
	}
	if v := reg.Gauge("colstore_bytes_mapped").Value(); v == 0 {
		t.Error("bytes-mapped gauge not set")
	}
	// Text stores are a no-op, not a panic.
	st.Instrument(reg)
}

func TestBinaryConcurrentScans(t *testing.T) {
	st, _ := buildStore(t, 20)
	bin, err := OpenBinary(dumpBinary(t, st))
	if err != nil {
		t.Fatal(err)
	}
	defer bin.Close()
	want := st.Len()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		q := Query{IncludeSteps: true}
		if i%3 == 1 {
			q.Fields = []string{"JobID", "User"}
		}
		go func(q Query) {
			defer wg.Done()
			if q.Fields != nil {
				var buf bytes.Buffer
				if _, err := bin.Write(&buf, q); err != nil {
					errs <- err
				}
				return
			}
			recs, err := bin.Select(q)
			if err != nil {
				errs <- err
				return
			}
			if len(recs) != want {
				errs <- errors.New("concurrent scan lost records")
			}
		}(q)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestAddIntoLazyShardMaterialises(t *testing.T) {
	st, _ := buildStore(t, 3)
	bin, err := OpenBinary(dumpBinary(t, st))
	if err != nil {
		t.Fatal(err)
	}
	defer bin.Close()
	recs, err := st.Select(Query{})
	if err != nil || len(recs) == 0 {
		t.Fatalf("seed select: %d recs, %v", len(recs), err)
	}
	extra := recs[0]
	extra.ID.Job += 1_000_000
	if err := bin.Add(extra); err != nil {
		t.Fatal(err)
	}
	bin.Finalize()
	if bin.Len() != st.Len()+1 {
		t.Errorf("Len after Add = %d, want %d", bin.Len(), st.Len()+1)
	}
	got, err := bin.Select(Query{User: extra.User})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i := range got {
		if got[i].ID == extra.ID {
			found = true
		}
	}
	if !found {
		t.Error("record added into lazy shard not found")
	}
}

// maxLoadLine is the row cap Load enforces: the one reader's.
const maxLoadLine = slurm.MaxLineLen

func TestLoadOversizedRowError(t *testing.T) {
	var b bytes.Buffer
	b.WriteString("JobID|User|State\n")
	b.WriteString("100001|alice|COMPLETED\n")
	b.WriteString("100002|")
	for b.Len() < maxLoadLine+64 {
		b.WriteString("xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")
	}
	b.WriteString("|FAILED\n")
	_, _, err := Load(&b)
	if err == nil {
		t.Fatal("oversized row: want error")
	}
	if want := "line 3"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Errorf("error %q does not name the line", err)
	}
}

func TestLoadLongButLegalRow(t *testing.T) {
	// A row longer than the reader buffer (64 KiB) but under the cap
	// must decode, not error: the old fixed-buffer scanner failed here.
	comment := bytes.Repeat([]byte("c"), 1<<17)
	var b bytes.Buffer
	b.WriteString("JobID|User|State|Comment\n")
	b.WriteString("100001|alice|COMPLETED|")
	b.Write(comment)
	b.WriteString("\n")
	st, malformed, err := Load(&b)
	if err != nil {
		t.Fatal(err)
	}
	if malformed != 0 || st.Len() != 1 {
		t.Fatalf("malformed=%d len=%d", malformed, st.Len())
	}
	recs, _ := st.Select(Query{Fields: []string{"Comment"}})
	if len(recs) != 1 || len(recs[0].Comment) != len(comment) {
		t.Error("long comment did not survive the load")
	}
}
