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
// of every Unicode kind, `\.`, empty, invalid UTF-8 — the header and the
// row are exactly what encoding/csv writes.
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

		var out bytes.Buffer
		rw := newRowWriter(&out, sidecarFuzzFields, DefaultOptions())
		rw.buf = appendSidecarHeader(rw.buf, rw.fields, rw.kinds)
		if err := rw.row(cells(a, durCell, b, countCell, c)); err != nil {
			t.Fatal(err)
		}
		if err := rw.flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf(" got %q\nwant %q", out.Bytes(), want)
		}
	})
}

// cells converts a row of strings to the byte cells the reader hands over.
func cells(row ...string) [][]byte {
	out := make([][]byte, len(row))
	for i, c := range row {
		out[i] = []byte(c)
	}
	return out
}

// TestSidecarRowZeroAllocs: once the buffer has grown, a row costs no
// allocation — quoted cells, a space-led cell and both normalisations
// included.
func TestSidecarRowZeroAllocs(t *testing.T) {
	row := cells("a,\"b\"", "1-02:03:04", " x", "9.4K", "/lustre/orion/prj")
	rw := newRowWriter(&bytes.Buffer{}, sidecarFuzzFields, DefaultOptions())
	if allocs := testing.AllocsPerRun(100, func() {
		if err := rw.row(row); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("%v allocs/row, want 0", allocs)
	}
}

// TestSidecarRowErrors: a cell that will not normalise names its column
// and leaves no partial row; a failed write sticks.
func TestSidecarRowErrors(t *testing.T) {
	var out bytes.Buffer
	rw := newRowWriter(&out, sidecarFuzzFields, DefaultOptions())
	if err := rw.row(cells("ok", "xx:yy", "b", "4", "c")); err == nil || rw.err != nil ||
		err.Error() != `curate: normalising Elapsed: slurm: malformed duration "xx:yy"` {
		t.Errorf("bad duration: err = %v, sticky = %v", err, rw.err)
	}
	if err := rw.row(cells("ok", "00:01:30", "b", "4", "c")); err != nil {
		t.Fatal(err)
	}
	if err := rw.flush(); err != nil || out.String() != "ok,1.50,b,4,c\n" {
		t.Errorf("after a refused row: %q, %v", out.String(), err)
	}

	fw := newRowWriter(&failWriter{}, sidecarFuzzFields, DefaultOptions())
	fw.buf = appendSidecarHeader(fw.buf, fw.fields, fw.kinds)
	if err := fw.flush(); err == nil || fw.flush() != err {
		t.Errorf("write error not sticky: %v then %v", err, fw.flush())
	}
}
