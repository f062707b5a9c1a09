package sacct

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"slurmsight/internal/cluster"
	"slurmsight/internal/sched"
	"slurmsight/internal/slurm"
	"slurmsight/internal/tracegen"
)

var base = time.Date(2024, 1, 10, 0, 0, 0, 0, time.UTC)

// storeCache shares simulated stores across tests; stores are read-only
// after Finalize, so reuse is safe.
var storeCache = map[int]struct {
	st  *Store
	res *sched.Result
}{}

// buildStore simulates a small Frontier workload spanning two months and
// ingests it. Results are cached per window length.
func buildStore(t testing.TB, days int) (*Store, *sched.Result) {
	t.Helper()
	if c, ok := storeCache[days]; ok {
		return c.st, c.res
	}
	p := tracegen.FrontierProfile()
	p.JobsPerDay, p.Users = 30, 25
	reqs, err := tracegen.Generate([]tracegen.Phase{{
		Profile: p, Start: base, End: base.AddDate(0, 0, days),
	}}, 17)
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
	st := NewStore()
	if err := st.Ingest(res); err != nil {
		t.Fatal(err)
	}
	st.Finalize()
	storeCache[days] = struct {
		st  *Store
		res *sched.Result
	}{st, res}
	return st, res
}

func TestMonthArithmetic(t *testing.T) {
	m := Month{2024, time.December}
	if n := m.Next(); n.Year != 2025 || n.Mon != time.January {
		t.Errorf("Next = %v", n)
	}
	if m.String() != "2024-12" {
		t.Errorf("String = %q", m.String())
	}
	p, err := ParseMonth("2024-03")
	if err != nil || p != (Month{2024, time.March}) {
		t.Errorf("ParseMonth = %v, %v", p, err)
	}
	if _, err := ParseMonth("March 2024"); err == nil {
		t.Error("bad month: want error")
	}
	if !(Month{2023, time.December}).Before(Month{2024, time.January}) {
		t.Error("Before is wrong across years")
	}
}

func TestStoreShardsAndCounts(t *testing.T) {
	st, res := buildStore(t, 40) // spans Jan and Feb
	if st.Len() != res.Len()+res.StepRows() {
		t.Errorf("Len = %d, want %d", st.Len(), res.Len()+res.StepRows())
	}
	months := st.Months()
	if len(months) < 2 {
		t.Fatalf("months = %v, want at least 2 shards", months)
	}
	for i := 1; i < len(months); i++ {
		if !months[i-1].Before(months[i]) {
			t.Error("Months not sorted")
		}
	}
}

func TestQueryJobsOnly(t *testing.T) {
	st, res := buildStore(t, 10)
	recs, err := st.Select(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != res.Len() {
		t.Errorf("job-only select = %d, want %d", len(recs), res.Len())
	}
	for i := range recs {
		if recs[i].IsStep() {
			t.Fatal("job-only query returned a step")
		}
	}
	all, err := st.Select(Query{IncludeSteps: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != st.Len() {
		t.Errorf("full select = %d, want %d", len(all), st.Len())
	}
}

func TestQueryWindowAndFilters(t *testing.T) {
	st, _ := buildStore(t, 10)
	mid := base.AddDate(0, 0, 5)
	early, err := st.Select(Query{End: mid})
	if err != nil {
		t.Fatal(err)
	}
	late, err := st.Select(Query{Start: mid})
	if err != nil {
		t.Fatal(err)
	}
	whole, _ := st.Select(Query{})
	if len(early)+len(late) != len(whole) {
		t.Errorf("window partition broken: %d + %d != %d", len(early), len(late), len(whole))
	}
	for _, r := range early {
		if !r.Submit.Before(mid) {
			t.Fatal("early window returned late record")
		}
	}
	// Filter by a user that exists.
	user := whole[0].User
	mine, err := st.Select(Query{User: user})
	if err != nil {
		t.Fatal(err)
	}
	if len(mine) == 0 {
		t.Fatal("user filter returned nothing")
	}
	for _, r := range mine {
		if r.User != user {
			t.Fatal("user filter leaked")
		}
	}
	cancelled, err := st.Select(Query{State: "CANCELLED"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range cancelled {
		if r.State != slurm.StateCancelled {
			t.Fatal("state filter leaked")
		}
	}
}

func TestQueryErrors(t *testing.T) {
	st, _ := buildStore(t, 3)
	if _, err := st.Select(Query{Fields: []string{"Bogus"}}); err == nil {
		t.Error("unknown field: want error")
	}
	if _, err := st.Select(Query{State: "EXPLODED"}); err == nil {
		t.Error("unknown state: want error")
	}
	if _, err := st.Select(Query{Start: base, End: base}); err == nil {
		t.Error("empty window: want error")
	}
}

func TestWriteFormat(t *testing.T) {
	st, _ := buildStore(t, 3)
	var buf bytes.Buffer
	n, err := st.Write(&buf, Query{Fields: []string{"JobID", "User", "State"}})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if lines[0] != "JobID|User|State" {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines)-1 != n {
		t.Errorf("wrote %d rows, reported %d", len(lines)-1, n)
	}
	for _, l := range lines[1:] {
		if strings.Count(l, "|") != 2 {
			t.Fatalf("bad row %q", l)
		}
	}
}

func TestDumpLoadRoundTrip(t *testing.T) {
	st, _ := buildStore(t, 5)
	var buf bytes.Buffer
	if err := st.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	st2, malformed, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if malformed != 0 {
		t.Errorf("malformed = %d on a clean dump", malformed)
	}
	if st2.Len() != st.Len() {
		t.Errorf("round trip lost records: %d vs %d", st2.Len(), st.Len())
	}
	a, _ := st.Select(Query{IncludeSteps: true})
	b, _ := st2.Select(Query{IncludeSteps: true})
	for i := range a {
		if a[i].ID != b[i].ID || a[i].State != b[i].State || !a[i].Submit.Equal(b[i].Submit) {
			t.Fatalf("record %d differs after round trip", i)
		}
	}
}

func TestLoadMalformedLines(t *testing.T) {
	in := "JobID|User|State\n" +
		"100001|alice|COMPLETED\n" +
		"100002|bob\n" + // missing column
		"100003|carol|NOT_A_STATE\n" + // bad state
		"100004|dave|FAILED\n"
	st, malformed, err := Load(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if malformed != 2 {
		t.Errorf("malformed = %d, want 2", malformed)
	}
	if st.Len() != 2 {
		t.Errorf("kept = %d, want 2", st.Len())
	}
	if _, _, err := Load(strings.NewReader("")); err == nil {
		t.Error("empty dump: want error")
	}
	if _, _, err := Load(strings.NewReader("JobID|Nope\n")); err == nil {
		t.Error("unknown header field: want error")
	}
}

func TestDumpFileLoadFile(t *testing.T) {
	st, _ := buildStore(t, 3)
	path := filepath.Join(t.TempDir(), "dump.txt")
	if err := st.DumpFile(path); err != nil {
		t.Fatal(err)
	}
	st2, _, err := loadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Len() != st.Len() {
		t.Errorf("file round trip lost records")
	}
	if _, _, err := loadFile(filepath.Join(t.TempDir(), "missing.txt")); err == nil {
		t.Error("missing file: want error")
	}
}

// TestWriteFileLeavesNoTempWhenRenameFails: a dump that was written in
// full but could not be renamed into place — path is a directory — left
// path.tmp behind. The failure now removes it, as every other one does,
// for the text dump and the binary one alike.
func TestWriteFileLeavesNoTempWhenRenameFails(t *testing.T) {
	st, _ := buildStore(t, 3)
	for name, dump := range map[string]func(string) error{"DumpFile": st.DumpFile, "DumpBinaryFile": st.DumpBinaryFile} {
		path := filepath.Join(t.TempDir(), "store")
		if err := os.Mkdir(path, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := dump(path); err == nil {
			t.Fatalf("%s renamed a file over a directory", name)
		}
		if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: %s is left behind (%v)", name, filepath.Base(path)+".tmp", err)
		}
	}
}

// TestWriteFileKeepsThePreviousFileWhole: a write that fails after it has
// written part of the file returns its error and leaves the file it would
// have replaced as it was, or no file where there was none, and no temp
// file either way.
func TestWriteFileKeepsThePreviousFileWhole(t *testing.T) {
	broken := errors.New("broken mid-write")
	half := func(w io.Writer) error {
		if _, err := w.Write([]byte("JobID|User\n1|half")); err != nil {
			return err
		}
		return broken
	}
	dir := t.TempDir()
	old := []byte("JobID|User\n1|previous\n")
	kept, fresh := filepath.Join(dir, "kept.txt"), filepath.Join(dir, "fresh.txt")
	if err := os.WriteFile(kept, old, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{kept, fresh} {
		if err := writeFile(path, half); !errors.Is(err, broken) {
			t.Fatalf("%s: writeFile returned %v, want the write's error", filepath.Base(path), err)
		}
		if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s.tmp is left behind (%v)", filepath.Base(path), err)
		}
	}
	if got, err := os.ReadFile(kept); err != nil || !bytes.Equal(got, old) {
		t.Errorf("the failed write changed the previous file: %q, %v", got, err)
	}
	if _, err := os.Stat(fresh); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("the failed write left a file where there was none (%v)", err)
	}
}

func TestFetchMonthly(t *testing.T) {
	st, _ := buildStore(t, 40)
	dir := t.TempDir()
	f := &Fetcher{Store: st, CacheDir: dir, Workers: 3}
	spec := FetchSpec{
		Granularity: Monthly,
		Start:       base,
		End:         base.AddDate(0, 0, 40),
	}
	files, err := f.Fetch(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 2 {
		t.Fatalf("files = %d, want one per month", len(files))
	}
	total := 0
	for _, ff := range files {
		if ff.Cached {
			t.Errorf("first fetch of %s served from cache", ff.Period)
		}
		data, err := os.ReadFile(ff.Path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Count(string(data), "\n")
		if lines-1 != ff.Rows {
			t.Errorf("%s: file has %d rows, reported %d", ff.Period, lines-1, ff.Rows)
		}
		total += ff.Rows
	}
	if total != st.Len() {
		t.Errorf("fetched %d rows, store has %d", total, st.Len())
	}

	// Second fetch with cache: everything served from disk.
	spec.UseCache = true
	again, err := f.Fetch(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, ff := range again {
		if !ff.Cached {
			t.Errorf("%s not served from cache", ff.Period)
		}
	}
}

func TestFetchYearly(t *testing.T) {
	st, _ := buildStore(t, 40)
	f := &Fetcher{Store: st, CacheDir: t.TempDir()}
	files, err := f.Fetch(context.Background(), FetchSpec{
		Granularity: Yearly,
		Start:       time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC),
		End:         time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || files[0].Period != "2024" {
		t.Fatalf("files = %+v", files)
	}
	if files[0].Rows != st.Len() {
		t.Errorf("yearly fetch rows = %d, want %d", files[0].Rows, st.Len())
	}
}

func TestFetchErrors(t *testing.T) {
	st, _ := buildStore(t, 2)
	f := &Fetcher{Store: st, CacheDir: t.TempDir()}
	if _, err := f.Fetch(context.Background(), FetchSpec{Granularity: Monthly}); err == nil {
		t.Error("zero window: want error")
	}
	noStore := &Fetcher{CacheDir: t.TempDir()}
	if _, err := noStore.Fetch(context.Background(), FetchSpec{}); err == nil {
		t.Error("no store: want error")
	}
	noDir := &Fetcher{Store: st}
	if _, err := noDir.Fetch(context.Background(), FetchSpec{}); err == nil {
		t.Error("no cache dir: want error")
	}
	// Every period checks the context before it starts, so a fetch whose
	// context is already cancelled writes nothing.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := f.Fetch(ctx, FetchSpec{
		Granularity: Monthly, Start: base, End: base.AddDate(0, 2, 0),
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled fetch: err = %v, want context.Canceled", err)
	}
	left, err := os.ReadDir(f.CacheDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("cancelled fetch left %s in the cache dir", e.Name())
	}
}

func TestParseGranularity(t *testing.T) {
	for _, s := range []string{"months", "monthly", "month"} {
		g, err := ParseGranularity(s)
		if err != nil || g != Monthly {
			t.Errorf("ParseGranularity(%q) = %v, %v", s, g, err)
		}
	}
	g, err := ParseGranularity("years")
	if err != nil || g != Yearly {
		t.Errorf("years: %v, %v", g, err)
	}
	if _, err := ParseGranularity("decade"); err == nil {
		t.Error("bad granularity: want error")
	}
	if Monthly.String() != "monthly" || Yearly.String() != "yearly" {
		t.Error("String() spellings wrong")
	}
}

// BenchmarkFetch is the Obtain-data stage on a six-month store, one
// period file at a time and eight at once.
func BenchmarkFetch(b *testing.B) {
	st, _ := buildStore(b, 180)
	spec := FetchSpec{Granularity: Monthly, Start: base, End: base.AddDate(0, 6, 0)}
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f := &Fetcher{Store: st, CacheDir: b.TempDir(), Workers: workers}
				if _, err := f.Fetch(context.Background(), spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
