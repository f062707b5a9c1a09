package slurm

import (
	"hash/fnv"
	"io"
	"strings"
	"testing"
)

// goldenInputs are the text inputs of the decode digest: the reader
// samples, the line-ending cases, and the seed corpora of
// FuzzDecodeRecord and FuzzChunkBoundaries as whole inputs.
var goldenInputs = []string{
	streamSampleJunk +
		"100007_3.2|gina|CANCELLED by 99|1-00:30:00|3\n" +
		"100008.batch|hank|OUT_OF_MEMORY|00:00:09|1\r\n" +
		"   \n" +
		"100009|alice|COMPLETED|05:30|9.4K", // no trailing newline
	"JobID|User|State|Elapsed|NNodes|Submit|Flags\n" +
		"100001|alice|COMPLETED|01:30:00|128|2024-03-01T08:00:00|SchedBackfill\n" +
		"100002|bob|FAILED|00:10:00|9.4K|2024-03-01T09:00:00|\n" +
		"|||||\n" +
		"100003|x|NOT_A_STATE|x|x|x|x\n",
	"JobID|User\n1|aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\n2|b\n3|c\n",
	"JobID|User\n1|a\r\n2|b\r\n3|c\r\n",
	"JobID|User\n1|a\n\n \n2|b",
	"JobID|User\n1|a|extra\n2|b\n",
	"JobID|ReqMem|ReqTRES|TRESUsageInAve|ExitCode|Backfill\n" +
		"7|NANC|cpu=4,mem=NANC||0:0|1\n" + // the committed FuzzParseMemory corpus entry
		"8|2Gc|cpu=56,mem=512G,node=2,gres/gpu=8|cpu=3,mem=1.5K|1:9|0\n" +
		"9|0||  |271|true\n" +
		"10|4000M|oops||a:b|purple\n",
}

// TestDecodeGoldenDigest pins what the row reader yields: every event
// of every input, a clean row as its re-encoding, a malformed one as its
// RowError text. The constant was recorded at the commit before the
// string row reader was deleted (d71e9a7), where both readers produced
// it, so the survivor is held to its deleted twin's output too.
func TestDecodeGoldenDigest(t *testing.T) {
	h := fnv.New64a()
	for _, in := range goldenInputs {
		br, err := NewByteRecordReader(strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range renderSeq(t, br.All(), br.Fields()) {
			io.WriteString(h, line+"\n")
		}
	}
	const want = 0x6cf4beb647faca5c
	if got := h.Sum64(); got != want {
		t.Errorf("reader events digest to %#x, want %#x", got, uint64(want))
	}
}
