package slurm

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// mirrorCorpus holds valid and adversarial inputs for every grammar,
// shared by TestParseBytesMirrorsString's cross-checks.
var mirrorCorpus = []string{
	"", " ", "  \t ", "0", "1", "-1", "+7", "007", "128", "9.4K", "2M",
	"1.5G", "9e9", "9e99", "9e99G", "1e-3K", "NaN", "NaNK", "InfG", "-InfK",
	"9223372036854775807", "9223372036854775808", "-9223372036854775808",
	"4611686018427387904K", "4611686018427387903", "1.0000000000000002K",
	"4000M", "512Gn", "2Gc", "0n", "0c", "1T", "1.5Tc", "xyz", "12x",
	"00:00:00", "01:30:00", "1-02:03:04", "90", "05:30", "2-12",
	"2-12:30", "UNLIMITED", "INVALID", "unlimited", "1:2:3:4", "-5",
	"999999999-00:00:00", "8589934592:00:00", "1-", "-", ":", "1::2",
	"00:60:00", "23:59:61", "+1:02", "1- 2", " 01:02:03 ",
	"2024-03-01T08:00:00", "2024-02-30T08:00:00", "2024-02-29T08:00:00",
	"2023-02-29T08:00:00", "2024-13-01T08:00:00", "2024-00-10T08:00:00",
	"2024-03-01 08:00:00", "2024-3-1T8:00:00", "Unknown", "None",
	"UNKNOWN", "none", "2024-03-01T24:00:00", "2024-03-01T08:60:00",
	"12345", "12345.batch", "12345.extern", "12345.0", "7_3", "7_3.2",
	"1_", "_1", "1.", ".", "1_2_3", "1.x", "0.batch", "-3.batch",
	"COMPLETED", "FAILED", "CANCELLED", "CANCELLED by 1234", "cancelled",
	"Completed", "TIMEOUT", "OUT_OF_MEMORY", "NODE_FAIL", "RUNNING",
	"PENDING", "REQUEUED", "PREEMPTED", "SUSPENDED", "BOOT_FAIL",
	"DEADLINE", "NOT_A_STATE", " COMPLETED ",
	"0:0", "1:9", "0:15", "271:0", "2:", ":9", "1:2:3", "9999999999999:0",
}

// TestParseBytesMirrorsString holds every byte parser to its string
// twin over mirrorCorpus: accept or reject, and the value of what is
// accepted. Time and state still have a twin in the tree. The other
// five grammars have one body now, and mirror what their string twins
// answered when they were deleted: an FNV digest of those answers,
// recorded at commit d71e9a7 through the string parsers (the byte
// parsers gave the same there).
func TestParseBytesMirrorsString(t *testing.T) {
	type pair struct {
		name string
		cmp  func(s string) (string, bool) // renders value+ok for both paths
	}
	pairs := []pair{
		{"time", func(s string) (string, bool) {
			sv, serr := ParseTime(s)
			bv, berr := ParseTimeBytes([]byte(s))
			if (serr == nil) != (berr == nil) || (serr == nil && !sv.Equal(bv)) {
				return fmt.Sprintf("string=(%v,%v) bytes=(%v,%v)", sv, serr, bv, berr), false
			}
			return "", true
		}},
		{"state", func(s string) (string, bool) {
			sv, serr := ParseState(s)
			bv, berr := ParseStateBytes([]byte(s))
			if (serr == nil) != (berr == nil) || (serr == nil && sv != bv) {
				return fmt.Sprintf("string=(%v,%v) bytes=(%v,%v)", sv, serr, bv, berr), false
			}
			return "", true
		}},
	}
	for _, p := range pairs {
		t.Run(p.name, func(t *testing.T) {
			for _, in := range mirrorCorpus {
				if diag, ok := p.cmp(in); !ok {
					t.Errorf("%s(%q): byte/string mismatch: %s", p.name, in, diag)
				}
			}
		})
	}

	// answer renders one parse: the values when accepted, nothing when not.
	answer := func(err error, vals ...any) string {
		if err != nil {
			return "rejected"
		}
		return fmt.Sprint(vals...)
	}
	recorded := []struct {
		name   string
		want   uint64
		answer func(b []byte) string
	}{
		{"count", 0xfac8249b38b25923, func(b []byte) string { n, err := ParseCountBytes(b); return answer(err, n) }},
		{"memory", 0x0c83bb99f634611f, func(b []byte) string { n, perCPU, err := ParseMemoryBytes(b); return answer(err, n, perCPU) }},
		{"duration", 0xe2e7540548132bd2, func(b []byte) string { d, err := ParseDurationBytes(b); return answer(err, d) }},
		{"jobid", 0x26ede6fea2937946, func(b []byte) string { id, err := ParseJobIDBytes(b); return answer(err, id) }},
		{"exitcode", 0x814c22551adc23da, func(b []byte) string { e, sig, err := ParseExitCodeBytes(b); return answer(err, e, sig) }},
	}
	for _, p := range recorded {
		t.Run(p.name, func(t *testing.T) {
			h := fnv.New64a()
			for _, in := range mirrorCorpus {
				fmt.Fprintf(h, "%q %s\n", in, p.answer([]byte(in)))
			}
			if got := h.Sum64(); got != p.want {
				t.Errorf("%s over mirrorCorpus digests to %#x, the string parser's answers to %#x", p.name, got, p.want)
			}
		})
	}
}

func TestSplitFieldsBytes(t *testing.T) {
	buf := make([][]byte, 0, 4)
	got := SplitFieldsBytes(buf, []byte("a|b||c"))
	if len(got) != 4 || string(got[0]) != "a" || string(got[2]) != "" || string(got[3]) != "c" {
		t.Errorf("SplitFieldsBytes = %q", got)
	}
	if got = SplitFieldsBytes(got[:0], []byte("solo")); len(got) != 1 || string(got[0]) != "solo" {
		t.Errorf("SplitFieldsBytes single = %q", got)
	}
}

// renderSeq renders each yielded event to a comparable line: the
// re-encoded record for clean rows, the error text for row errors.
func renderSeq(t *testing.T, seq RecordSeq, fields []string) []string {
	t.Helper()
	var out []string
	for rec, err := range seq {
		if err != nil {
			if _, ok := err.(*RowError); !ok {
				t.Fatalf("terminal error: %v", err)
			}
			out = append(out, "err: "+err.Error())
			continue
		}
		enc, eerr := EncodeRecord(rec, fields)
		if eerr != nil {
			t.Fatalf("re-encode: %v", eerr)
		}
		out = append(out, enc)
	}
	return out
}

// TestByteRecordReaderLineEndings spells out what the reader does at
// the edges of a line: CRLF is stripped, a whitespace-only line is
// skipped but counted, and a final unterminated line is a row.
func TestByteRecordReaderLineEndings(t *testing.T) {
	input := streamSample +
		"100007_3.2|gina|CANCELLED by 99|1-00:30:00|3\n" +
		"100008.batch|hank|OUT_OF_MEMORY|00:00:09|1\r\n" +
		"   \n" +
		"100009|alice|COMPLETED|xx|9.4K\n" +
		"100010|alice|COMPLETED|05:30|9.4K" // no trailing newline
	br, err := NewByteRecordReader(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"100001|alice|COMPLETED|01:30:00|128",
		"100002|bob|FAILED|00:10:00|9400",
		"100003|carol|CANCELLED|00:00:00|1",
		"100007_3.2|gina|CANCELLED|1-00:30:00|3",
		"100008.batch|hank|OUT_OF_MEMORY|00:00:09|1",
		`err: slurm: row at line 9: slurm: field Elapsed: slurm: malformed duration "xx"`,
		"100010|alice|COMPLETED|00:05:30|9400",
	}
	got := renderSeq(t, br.All(), br.Fields())
	if len(got) != len(want) {
		t.Fatalf("%d events, want %d: %q", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d = %s, want %s", i, got[i], want[i])
		}
	}
}

// TestByteRecordReaderFullCatalogue round-trips every curated column,
// including the Flags cache and interned free-form strings, on
// randomized encodable records: what the reader decodes re-encodes to
// the line it read.
func TestByteRecordReaderFullCatalogue(t *testing.T) {
	fields := SelectedNames()
	rng := rand.New(rand.NewSource(7))
	var want []string
	for i := 0; i < 200; i++ {
		line, err := EncodeRecord(randomRecord(rng), fields)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, line)
	}
	input := Header(fields) + "\n" + strings.Join(want, "\n") + "\n"
	br, err := NewByteRecordReader(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	got := renderSeq(t, br.All(), fields)
	if len(want) != len(got) {
		t.Fatalf("event counts differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("row %d differs:\nencoded: %s\ndecoded: %s", i, want[i], got[i])
		}
	}
}

// TestByteRecordReaderFlagsCacheIsolated pins the clipped-cache
// property: appending to one record's cached flag slice (what the
// Backfill column does) must not leak into later rows that share the
// cache entry.
func TestByteRecordReaderFlagsCacheIsolated(t *testing.T) {
	input := "JobID|Flags|Backfill\n" +
		"1|SchedMain|1\n" +
		"2|SchedMain|0\n"
	br, err := NewByteRecordReader(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	first, err := br.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(first.Flags, ","); got != "SchedMain,SchedBackfill" {
		t.Fatalf("first flags = %q", got)
	}
	second, err := br.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(second.Flags, ","); got != "SchedMain" {
		t.Fatalf("cached flags corrupted by earlier append: %q", got)
	}
}

// TestByteRecordReaderZeroAllocs is the decoder's allocation pin: after
// the interner warms up, decoding one row of the full curated selection,
// both TRES maps included, allocates nothing.
func TestByteRecordReaderZeroAllocs(t *testing.T) {
	fields := SelectedNames()
	rec := benchRecord()
	line, err := EncodeRecord(&rec, fields)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString(Header(fields))
	sb.WriteByte('\n')
	const rows = 4096
	for i := 0; i < rows; i++ {
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
	br, err := NewByteRecordReader(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ { // warm the interner and scratch capacities
		if _, err := br.Next(); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(1000, func() {
		if _, err := br.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("decode allocates %.2f allocs/row, want 0", avg)
	}
}

// benchRecord is a representative full-width record whose cells exercise
// the typed byte parsers (timestamps, durations, counts, memory, state,
// exit code, flags, TRES in the simulator's shape) without touching a
// slow path.
func benchRecord() Record {
	return Record{
		ID: NewJobID(123456), JobName: "bench", User: "alice", Account: "csc000",
		Cluster: "frontier", Partition: "batch",
		Submit:  time.Date(2024, 3, 1, 10, 0, 0, 0, time.UTC),
		Start:   time.Date(2024, 3, 1, 11, 0, 0, 0, time.UTC),
		End:     time.Date(2024, 3, 1, 13, 0, 0, 0, time.UTC),
		Elapsed: 2 * time.Hour, Timelimit: 4 * time.Hour,
		NNodes: 128, NCPUs: 8192, ReqNodes: 128, ReqCPUs: 8192,
		ReqMem: 512 << 20, State: StateCompleted, ExitCode: 0,
		Flags: []string{FlagBackfill}, QOS: "normal", Priority: 100000,
		Eligible:       time.Date(2024, 3, 1, 10, 0, 0, 0, time.UTC),
		TRESReq:        TRES{"cpu": 8192, "mem": 64 << 30, "node": 128, "gres/gpu": 1024},
		TRESUsageInAve: TRES{"cpu": 5734, "mem": 23 << 30},
	}
}

func BenchmarkByteRecordReaderDecode(b *testing.B) {
	fields := SelectedNames()
	rec := benchRecord()
	line, err := EncodeRecord(&rec, fields)
	if err != nil {
		b.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString(Header(fields))
	sb.WriteByte('\n')
	const rows = 64
	for i := 0; i < rows; i++ {
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
	input := sb.String()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		br, err := NewByteRecordReader(strings.NewReader(input))
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := br.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}
}
