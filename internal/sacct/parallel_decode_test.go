package sacct

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// parityQueries is the parity workload: full scans, projected scans,
// range restrictions, and filters.
func parityQueries() []Query {
	return []Query{
		{},                   // jobs only, every column
		{IncludeSteps: true}, // everything
		{Fields: []string{"JobID", "User", "State"}},                            // projected
		{Fields: []string{"JobID", "Submit", "Elapsed"}, IncludeSteps: true},    // projected, steps
		{Start: base.AddDate(0, 0, 20), End: base.AddDate(0, 0, 80)},            // month subset
		{State: "COMPLETED", Fields: []string{"User", "NNodes", "Elapsed"}},     // filter + projection
		{User: "u03", Start: base.AddDate(0, 0, 5), End: base.AddDate(0, 2, 0)}, // narrow
	}
}

// openBinaryFresh reopens the dump: nothing verified, no dictionary read,
// no index built.
func openBinaryFresh(t *testing.T, path string) *Store {
	t.Helper()
	bin, err := OpenBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bin.Close() })
	return bin
}

// scanners runs fn on n goroutines released together and waits for them.
func scanners(n int, fn func(g int)) {
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			fn(g)
		}()
	}
	close(start)
	wg.Wait()
}

// parityFixture is what the scan and warm parity tests share: the
// 100-day store (4 month shards) dumped to the columnar format once, and
// the text store's answer to each parity query.
var parityFixture struct {
	once sync.Once
	dump []byte
	want []string
	err  error
}

// parityDump writes the shared dump into the test's own directory, which
// goes with the test, and returns the reference answers.
func parityDump(t *testing.T) (path string, want []string) {
	t.Helper()
	st, _ := buildStore(t, 100)
	f := &parityFixture
	f.once.Do(func() {
		var dump bytes.Buffer
		if f.err = st.DumpBinary(&dump); f.err != nil {
			return
		}
		f.dump = dump.Bytes()
		for _, q := range parityQueries() {
			var buf bytes.Buffer
			if _, f.err = st.Write(&buf, q); f.err != nil {
				return
			}
			f.want = append(f.want, buf.String())
		}
	})
	if f.err != nil {
		t.Fatal(f.err)
	}
	path = filepath.Join(t.TempDir(), "store.colstore")
	if err := os.WriteFile(path, f.dump, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, f.want
}

// sameText checks what a scan writes against want as it arrives, so that
// a parity check never buffers a second copy of a large answer.
type sameText struct {
	want string
	off  int
	diff bool
}

func (w *sameText) Write(p []byte) (int, error) {
	if !w.diff && len(p) <= len(w.want)-w.off && w.want[w.off:w.off+len(p)] == string(p) {
		w.off += len(p)
	} else {
		w.diff = true
	}
	return len(p), nil
}

// writesText reports whether q on st writes exactly want.
func writesText(st *Store, q Query, want string) (bool, error) {
	w := sameText{want: want}
	_, err := st.Write(&w, q)
	return !w.diff && w.off == len(want), err
}

// TestParallelScanParity pins what is left of the multi-core read plane:
// any number of scans share a store's sealed shards, each through a
// cursor of its own, and whichever of them touches a column first loads
// it for all. At every width, over a fresh store each time so the scans
// race for those first loads, every query yields byte-identical output to
// the in-memory text store.
func TestParallelScanParity(t *testing.T) {
	path, want := parityDump(t)
	queries := parityQueries()
	for _, width := range []int{1, 2, 4, 8} {
		bin := openBinaryFresh(t, path)
		scanners(width, func(g int) {
			for i := g; i < len(queries); i += width { // each query once, dealt round the scanners
				if same, err := writesText(bin, queries[i], want[i]); err != nil {
					t.Errorf("width %d query %d: %v", width, i, err)
				} else if !same {
					t.Errorf("width %d query %d: output diverges from text store", width, i)
				}
			}
		})
	}
}

// TestParallelWarmParity pins that Warm may race with scans and with
// other Warms: afterwards every column of every shard is loaded (a scan
// loads nothing more), no row has left the disk, and every query still
// matches the text store byte for byte.
func TestParallelWarmParity(t *testing.T) {
	path, want := parityDump(t)
	queries := parityQueries()
	for _, width := range []int{1, 2, 4, 8} {
		bin := openBinaryFresh(t, path)
		scanners(width, func(g int) {
			var err error
			if g%2 == 1 {
				_, err = bin.Write(io.Discard, queries[g%len(queries)])
			} else {
				err = bin.Warm()
			}
			if err != nil {
				t.Errorf("width %d scanner %d: %v", width, g, err)
			}
		})
		for m, mo := range bin.months {
			if len(mo.mem) != 0 {
				t.Fatalf("width %d: Warm left %d records of %s in memory", width, len(mo.mem), m)
			}
		}
		for i, q := range queries {
			if same, err := writesText(bin, q, want[i]); err != nil {
				t.Fatal(err)
			} else if !same {
				t.Fatalf("width %d query %d: warm output diverges", width, i)
			}
		}
	}
}

// TestParallelWriteNEarlyStop: a consumer that stops after a handful of
// rows sees the prefix the text store produces, whether or not other
// scans are part-way through the same shards.
func TestParallelWriteNEarlyStop(t *testing.T) {
	st, _ := buildStore(t, 100)
	path := dumpBinary(t, st)
	q := Query{Fields: []string{"JobID", "User", "State"}, IncludeSteps: true}
	for _, limit := range []int{1, 7, 100} {
		var want bytes.Buffer
		if _, err := st.WriteN(&want, q, limit); err != nil {
			t.Fatal(err)
		}
		for _, width := range []int{1, 2, 4, 8} {
			bin := openBinaryFresh(t, path)
			scanners(width, func(int) {
				var got bytes.Buffer
				n, err := bin.WriteN(&got, q, limit)
				switch {
				case err != nil:
					t.Errorf("width %d limit %d: %v", width, limit, err)
				case n != limit:
					t.Errorf("width %d limit %d: wrote %d rows", width, limit, n)
				case got.String() != want.String():
					t.Errorf("width %d limit %d: prefix diverges from the text store", width, limit)
				}
			})
		}
	}
}

// TestParallelCorruptShardErrorParity pins the error contract: a shard
// with a damaged column fails every scan that projects the column, with
// the same error, before a row of that shard is yielded and after every
// row of the months in front of it — whichever of the racing scans met
// the damage first — and healthy months stay readable.
func TestParallelCorruptShardErrorParity(t *testing.T) {
	st, _ := buildStore(t, 100)
	path := dumpBinary(t, st)
	corruptFirstColumn(t, path)

	queries := []Query{
		{IncludeSteps: true}, // every column
		{Fields: []string{"JobID", "User"}, IncludeSteps: true}, // projected
	}
	for qi, q := range queries {
		var wantErr, wantOut string
		{
			seq := openBinaryFresh(t, path)
			var buf bytes.Buffer
			n, err := seq.Write(&buf, q)
			if err == nil || n != 0 {
				t.Fatalf("query %d: scan of a store whose first shard is corrupt wrote %d rows, error %v", qi, n, err)
			}
			wantErr, wantOut = err.Error(), buf.String()
		}
		for _, width := range []int{2, 4, 8} {
			bin := openBinaryFresh(t, path)
			scanners(width, func(int) {
				var buf bytes.Buffer
				_, err := bin.Write(&buf, q)
				switch {
				case err == nil:
					t.Errorf("width %d query %d: scan of corrupt shard succeeded", width, qi)
				case err.Error() != wantErr:
					t.Errorf("width %d query %d: error %q, want %q", width, qi, err, wantErr)
				case buf.String() != wantOut:
					t.Errorf("width %d query %d: pre-error output diverges", width, qi)
				}
			})

			// Healthy months after the corrupt one stay readable.
			months := bin.Months()
			last := months[len(months)-1]
			healthy := Query{Start: last.Start(), End: last.Next().Start()}
			want := queryText(t, st, healthy)
			if got := queryText(t, bin, healthy); got != want {
				t.Fatalf("width %d: healthy month diverges after corrupt-shard error", width)
			}
		}
	}
}
