package slurm

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTrace materialises a trace body (header + rows) to a temp file.
func writeTrace(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.txt")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// buildTrace renders n data rows, replacing the rows at malformed
// indices with an undecodable cell.
func buildTrace(rng *rand.Rand, n int, malformed map[int]bool) string {
	var sb strings.Builder
	sb.WriteString("JobID|User|State|Elapsed|NNodes\n")
	users := []string{"alice", "bob", "carol", "dave"}
	for i := 0; i < n; i++ {
		if malformed[i] {
			fmt.Fprintf(&sb, "%d|%s|COMPLETED|xx:yy|1\n", 100000+i, users[i%len(users)])
			continue
		}
		fmt.Fprintf(&sb, "%d|%s|COMPLETED|%02d:%02d:00|%d\n",
			100000+i, users[i%len(users)], rng.Intn(24), rng.Intn(60), 1+rng.Intn(512))
	}
	return sb.String()
}

func TestChunkScannerPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	body := buildTrace(rng, 200, nil)
	path := writeTrace(t, body)
	data := []byte(body)
	headerEnd := strings.IndexByte(body, '\n') + 1

	for _, n := range []int{1, 2, 3, 4, 7, 16, 1000} {
		cs, err := NewChunkScanner(path, n)
		if err != nil {
			t.Fatal(err)
		}
		chunks := cs.chunks
		if len(chunks) == 0 || len(chunks) > n {
			t.Fatalf("n=%d: got %d chunks", n, len(chunks))
		}
		// Chunks tile the data region exactly, in order.
		off := int64(headerEnd)
		for i, c := range chunks {
			if c.Off != off {
				t.Fatalf("n=%d chunk %d: starts at %d, want %d", n, i, c.Off, off)
			}
			if c.Len <= 0 {
				t.Fatalf("n=%d chunk %d: empty", n, i)
			}
			// Every chunk boundary except EOF sits just past a newline.
			if end := c.Off + c.Len; end < int64(len(data)) && data[end-1] != '\n' {
				t.Fatalf("n=%d chunk %d: boundary %d not newline-aligned", n, i, end)
			}
			off = c.Off + c.Len
		}
		if off != int64(len(data)) {
			t.Fatalf("n=%d: chunks cover %d bytes, want %d", n, off, len(data))
		}
	}
}

func TestChunkScannerHeaderOnly(t *testing.T) {
	cs, err := NewChunkScanner(writeTrace(t, "JobID|User\n"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if cs.NumChunks() != 0 {
		t.Errorf("header-only file: %d chunks, want 0", cs.NumChunks())
	}
	if _, err := NewChunkScanner(writeTrace(t, ""), 2); err == nil {
		t.Error("empty file: want header error")
	}
	if _, err := NewChunkScanner(writeTrace(t, "JobID|Mystery\nx|y\n"), 2); err == nil {
		t.Error("unknown header field: want error")
	}
}

// eventKinds renders a reader's events comparably across chunk plans:
// row-error line numbers are chunk-relative past chunk 0, so a
// malformed row renders as "err".
func eventKinds(t *testing.T, br *ByteRecordReader) []string {
	t.Helper()
	out := renderSeq(t, br.All(), br.Fields())
	for i, ev := range out {
		if strings.HasPrefix(ev, "err: ") {
			out[i] = "err"
		}
	}
	return out
}

// FuzzChunkBoundaries feeds arbitrary trace bodies through one reader
// over the whole input and through the chunk plan at several chunk
// counts: the events must match byte for byte no matter where the chunk
// boundaries land (including mid-row candidates that the planner must
// push to the next newline).
func FuzzChunkBoundaries(f *testing.F) {
	f.Add("JobID|User|State|Elapsed|NNodes\n100001|alice|COMPLETED|01:30:00|128\n100002|bob|FAILED|00:10:00|9.4K\n", 2)
	// Candidate boundaries landing mid-row: long rows, tiny chunks.
	f.Add("JobID|User\n1|aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\n2|b\n3|c\n", 5)
	f.Add("JobID|User\n1|a\r\n2|b\r\n3|c\r\n", 3) // CRLF rows
	f.Add("JobID|User\n1|a\n\n \n2|b", 4)         // blanks + unterminated tail
	f.Add("JobID|User\n1|a|extra\n2|b\n", 2)      // malformed row at a boundary
	f.Fuzz(func(t *testing.T, body string, nchunks int) {
		if len(body) > 1<<16 || nchunks < 1 || nchunks > 32 {
			return
		}
		path := filepath.Join(t.TempDir(), "fuzz.txt")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		whole, err := NewByteRecordReader(strings.NewReader(body))
		cs, cerr := NewChunkScanner(path, nchunks)
		if (err == nil) != (cerr == nil) {
			t.Fatalf("header: reader says %v, chunk scanner says %v", err, cerr)
		}
		if err != nil {
			return
		}
		want := eventKinds(t, whole)
		var got []string
		for i := 0; i < cs.NumChunks(); i++ {
			br, closer, err := cs.Open(i)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, eventKinds(t, br)...)
			closer.Close()
		}
		if len(want) != len(got) {
			t.Fatalf("chunks=%d: %d events vs %d\nbody=%q", nchunks, len(want), len(got), body)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("chunks=%d event %d:\nwhole:   %s\nchunked: %s\nbody=%q",
					nchunks, i, want[i], got[i], body)
			}
		}
	})
}

// TestChunkScannerHeaderCap: the header is a line like any other, so the
// scanner refuses one past MaxLineLen with the reader's error instead of
// reading it whole.
func TestChunkScannerHeaderCap(t *testing.T) {
	body := "JobID|" + strings.Repeat("x", 9<<20) + "\n1|a\n"
	const want = "slurm: line 1: row exceeds 8388608 bytes"
	if _, err := NewChunkScanner(writeTrace(t, body), 2); err == nil || err.Error() != want {
		t.Errorf("chunk scanner: err = %.80v, want %s", err, want)
	}
	if _, err := NewByteRecordReader(strings.NewReader(body)); err == nil || err.Error() != want {
		t.Errorf("reader: err = %.80v, want %s", err, want)
	}
}

// TestChunkBoundaryInsideLongRow: a candidate boundary that lands inside
// a row several times longer than the scanner's buffer still moves to
// the end of that row, so the chunks decode to what one reader over the
// whole file yields.
func TestChunkBoundaryInsideLongRow(t *testing.T) {
	long := strings.Repeat("c", 5*scanBuf+17)
	body := "JobID|Comment\n1|a\n2|" + long + "\n3|b\n4|" + long + "x\n5|c\n"
	path := writeTrace(t, body)
	whole, err := NewByteRecordReader(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	want := renderSeq(t, whole.All(), whole.Fields())
	for _, n := range []int{2, 3, 4, 8} {
		cs, err := NewChunkScanner(path, n)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for i := 0; i < cs.NumChunks(); i++ {
			c := cs.chunks[i]
			if c.Off+c.Len < int64(len(body)) && body[c.Off+c.Len-1] != '\n' {
				t.Errorf("n=%d: chunk %d ends mid-row at %d", n, i, c.Off+c.Len)
			}
			br, closer, err := cs.Open(i)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, renderSeq(t, br.All(), br.Fields())...)
			closer.Close()
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("n=%d: %d chunks decode to %d events, want the whole file's %d", n, cs.NumChunks(), len(got), len(want))
		}
	}
}
