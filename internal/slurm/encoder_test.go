package slurm

import (
	"strings"
	"testing"
)

func TestEncoderResolvesNamesOnce(t *testing.T) {
	if _, err := NewEncoder([]string{"JobID", "Mystery"}); err == nil || !strings.Contains(err.Error(), `"Mystery"`) {
		t.Errorf("unknown field: err = %v", err)
	}
	// Foreign spellings resolve; the header keeps them as given, which is
	// what Header always did.
	names := []string{"jobid", " State ", "NNODES"}
	enc, err := NewEncoder(names)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(enc.AppendHeader(nil)); got != Header(names) || got != "jobid| State |NNODES" {
		t.Errorf("header = %q", got)
	}
	r := sampleRecord()
	line := string(enc.AppendRecord([]byte("x"), r))
	if line != "x123456|COMPLETED|128" {
		t.Errorf("AppendRecord = %q", line)
	}
	wrapped, err := EncodeRecord(r, names)
	if err != nil || "x"+wrapped != line {
		t.Errorf("EncodeRecord = %q, %v", wrapped, err)
	}
}

// TestFieldLookupCanonicalSpellingDoesNotAllocate is why EncodeRecord
// stays usable as a wrapper: resolving the names internal callers pass
// (SelectedNames) costs a map probe, not a lower-cased copy.
func TestFieldLookupCanonicalSpellingDoesNotAllocate(t *testing.T) {
	names := SelectedNames()
	allocs := testing.AllocsPerRun(10, func() {
		for _, n := range names {
			if lookupField(n) == nil {
				t.Fatalf("lookupField(%q) failed", n)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("canonical lookups allocate %v times per %d names", allocs, len(names))
	}
}

// TestTRESAppendPastStackKeys covers the map too large for TRES.Append's
// stack array: still sorted, still the String form.
func TestTRESAppendPastStackKeys(t *testing.T) {
	tr := TRES{"mem": 3 << 29, "cpu": 56, "node": 2, "billing": 7, "energy": 9,
		"gres/gpu": 8, "fs/disk": 1, "vmem": 1 << 20, "pages": 4, "gres/gpu/mem": 5 << 30}
	const want = "billing=7,cpu=56,energy=9,fs/disk=1,gres/gpu=8,gres/gpu/mem=5G,mem=1.50G,node=2,pages=4,vmem=1M"
	if got := string(tr.Append([]byte("k:"))); got != "k:"+want || tr.String() != want {
		t.Errorf("Append = %q\nString = %q\n  want %q", got, tr.String(), want)
	}
}

// BenchmarkEncodeRecord prices one full-width row through the emit
// plane: "encoder" is the path every writer takes (one Encoder, one
// reused buffer), "wrapper" the one-shot EncodeRecord.
func BenchmarkEncodeRecord(b *testing.B) {
	fields := SelectedNames()
	rec := sampleRecord()
	b.Run("encoder", func(b *testing.B) {
		enc, err := NewEncoder(fields)
		if err != nil {
			b.Fatal(err)
		}
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = enc.AppendRecord(buf[:0], rec)
		}
		b.SetBytes(int64(len(buf)))
	})
	b.Run("wrapper", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := EncodeRecord(rec, fields); err != nil {
				b.Fatal(err)
			}
		}
	})
}
