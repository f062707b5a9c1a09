package curate

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"testing"
	"time"

	"slurmsight/internal/slurm"
)

// sidecarFuzzFields puts a raw column either side of a duration and a
// count column, so a fuzzed row crosses every column kind.
var sidecarFuzzFields = []string{"JobName", "Elapsed", "Comment", "NNodes", "WorkDir"}

// csvReference renders the header and one row the way the sidecar was
// written before the row writer existed: normalise each cell to a
// string, then encoding/csv.Writer.
func csvReference(t testing.TB, a, b, c string, elapsed time.Duration, nodes int64) []byte {
	t.Helper()
	var out bytes.Buffer
	cw := csv.NewWriter(&out)
	rows := [][]string{
		{"JobName", "ElapsedMinutes", "Comment", "NNodes", "WorkDir"},
		{a, strconv.FormatFloat(elapsed.Minutes(), 'f', 2, 64), b, strconv.FormatInt(nodes, 10), c},
	}
	if err := cw.WriteAll(rows); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// FuzzSidecarRowMatchesEncodingCSV holds the row writer to its quoting
// contract: for arbitrary cells — commas, quotes, CR/LF, leading spaces
// of every Unicode kind, `\.`, empty, invalid UTF-8 — the string cell
// path and the byte cell path both write exactly what encoding/csv does.
func FuzzSidecarRowMatchesEncodingCSV(f *testing.F) {
	for _, seed := range [][3]string{
		{"plain", "", "/lustre/orion/prj/scratch"},
		{"a,b", `say "hi"`, "line\nbreak"},
		{" leading", "\ttab", "cr\rmid"},
		{`\.`, `\.x`, `"`},
		{" nbsp", " em", "　ideographic"},
		{"\xff\xfe", "\xc2", "trailing "},
		{`""`, ",", "\r\n"},
	} {
		f.Add(seed[0], seed[1], seed[2], uint32(5400), uint32(128))
	}
	f.Fuzz(func(t *testing.T, a, b, c string, elapsedSec, nodes uint32) {
		elapsed := time.Duration(elapsedSec) * time.Second
		durCell, countCell := slurm.FormatDuration(elapsed), strconv.FormatUint(uint64(nodes), 10)
		want := csvReference(t, a, b, c, elapsed, int64(nodes))

		var viaString bytes.Buffer
		sw := newStringRowWriter(&viaString, sidecarFuzzFields, DefaultOptions())
		sw.header()
		if err := sw.row([]string{a, durCell, b, countCell, c}); err != nil {
			t.Fatal(err)
		}
		if err := sw.flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(viaString.Bytes(), want) {
			t.Errorf("string cells:\n got %q\nwant %q", viaString.Bytes(), want)
		}

		var viaBytes bytes.Buffer
		bw := newByteRowWriter(&viaBytes, sidecarFuzzFields, DefaultOptions())
		bw.header()
		if err := bw.row([][]byte{[]byte(a), []byte(durCell), []byte(b), []byte(countCell), []byte(c)}); err != nil {
			t.Fatal(err)
		}
		if err := bw.flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(viaBytes.Bytes(), want) {
			t.Errorf("byte cells:\n got %q\nwant %q", viaBytes.Bytes(), want)
		}
	})
}

// TestSidecarRowZeroAllocs: once the buffer has grown, a row costs no
// allocation — quoted cells and a space-led cell included. The byte path
// (the one StreamFileParallel runs) is pinned with every normalisation
// on; the string path with none, because slurm.ParseDuration itself
// splits its input into a fresh slice.
func TestSidecarRowZeroAllocs(t *testing.T) {
	cells := []string{"a,\"b\"", "1-02:03:04", " x", "9.4K", "/lustre/orion/prj"}
	byteCells := make([][]byte, len(cells))
	for i, c := range cells {
		byteCells[i] = []byte(c)
	}
	sw := newStringRowWriter(&bytes.Buffer{}, sidecarFuzzFields, Options{})
	bw := newByteRowWriter(&bytes.Buffer{}, sidecarFuzzFields, DefaultOptions())
	for name, row := range map[string]func() error{
		"string": func() error { return sw.row(cells) },
		"bytes":  func() error { return bw.row(byteCells) },
	} {
		if allocs := testing.AllocsPerRun(100, func() {
			if err := row(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s cells: %v allocs/row, want 0", name, allocs)
		}
	}
}

// TestSidecarRowErrors: a cell that will not normalise names its column
// and leaves no partial row; a failed write sticks.
func TestSidecarRowErrors(t *testing.T) {
	var out bytes.Buffer
	sw := newStringRowWriter(&out, sidecarFuzzFields, DefaultOptions())
	if err := sw.row([]string{"ok", "xx:yy", "b", "4", "c"}); err == nil || sw.err != nil ||
		err.Error() != `curate: normalising Elapsed: slurm: malformed duration "xx:yy"` {
		t.Errorf("bad duration: err = %v, sticky = %v", err, sw.err)
	}
	if err := sw.row([]string{"ok", "00:01:30", "b", "4", "c"}); err != nil {
		t.Fatal(err)
	}
	if err := sw.flush(); err != nil || out.String() != "ok,1.50,b,4,c\n" {
		t.Errorf("after a refused row: %q, %v", out.String(), err)
	}

	fw := newStringRowWriter(&failWriter{}, sidecarFuzzFields, DefaultOptions())
	fw.header()
	if err := fw.flush(); err == nil || fw.flush() != err {
		t.Errorf("write error not sticky: %v then %v", err, fw.flush())
	}
}
