package slurm

import "testing"

// FuzzParseDuration checks the duration parser never panics and that
// every accepted value re-parses to the same duration after formatting.
func FuzzParseDuration(f *testing.F) {
	for _, seed := range []string{
		"00:00:00", "1-02:03:04", "90", "05:30", "2-12", "UNLIMITED",
		"", "x", "1:2:3:4", "-5", "999999999-00:00:00",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		d, err := ParseDurationBytes([]byte(s))
		if err != nil {
			return
		}
		if d < 0 {
			t.Fatalf("ParseDurationBytes(%q) accepted a negative duration %v", s, d)
		}
		got, err := ParseDurationBytes([]byte(FormatDuration(d)))
		if err != nil {
			t.Fatalf("formatted duration %q does not re-parse: %v", FormatDuration(d), err)
		}
		if got != d {
			t.Fatalf("round trip drift: %v → %q → %v", d, FormatDuration(d), got)
		}
	})
}

// FuzzParseJobID checks the job-id parser never panics and accepted ids
// round-trip exactly.
func FuzzParseJobID(f *testing.F) {
	for _, seed := range []string{
		"12345", "12345.batch", "12345.extern", "12345.0", "7_3", "7_3.2",
		"", "abc", "1_", "_1", "1.", ".", "1_2_3", "1.x",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		id, err := ParseJobIDBytes([]byte(s))
		if err != nil {
			return
		}
		back, err := ParseJobIDBytes([]byte(id.String()))
		if err != nil {
			t.Fatalf("canonical form %q does not re-parse: %v", id.String(), err)
		}
		if back != id {
			t.Fatalf("round trip drift: %q → %v → %v", s, id, back)
		}
	})
}

// FuzzParseMemory checks the memory parser never panics and stays
// non-negative.
func FuzzParseMemory(f *testing.F) {
	for _, seed := range []string{"0", "4000M", "512Gn", "2Gc", "1.5K", "1T", "", "xyz", "9e99G"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		b, _, err := ParseMemoryBytes([]byte(s))
		if err != nil {
			return
		}
		if b < 0 {
			t.Fatalf("ParseMemoryBytes(%q) = %d", s, b)
		}
	})
}

// FuzzDecodeRecord feeds arbitrary pipe rows through the full decoder
// (the reader, one row under a fixed header): it must reject or accept
// without panicking, and whatever it accepts must re-encode to a row
// that decodes to the same record.
func FuzzDecodeRecord(f *testing.F) {
	fields := []string{"JobID", "User", "State", "Elapsed", "NNodes", "Submit", "Flags"}
	f.Add("100001|alice|COMPLETED|01:30:00|128|2024-03-01T08:00:00|SchedBackfill")
	f.Add("100002|bob|FAILED|00:10:00|9.4K|2024-03-01T09:00:00|")
	f.Add("|||||")
	f.Add("100003|x|NOT_A_STATE|x|x|x|x")
	f.Fuzz(func(t *testing.T, line string) {
		rec, err := decodeLine(line, fields)
		if err != nil {
			return
		}
		out, err := EncodeRecord(rec, fields)
		if err != nil {
			t.Fatalf("accepted row does not re-encode: %v", err)
		}
		// Re-decoding the canonical encoding must succeed and agree.
		rec2, err := decodeLine(out, fields)
		if err != nil {
			t.Fatalf("canonical row %q rejected: %v", out, err)
		}
		if rec2.ID != rec.ID || rec2.State != rec.State || rec2.NNodes != rec.NNodes {
			t.Fatalf("decode drift on %q", line)
		}
	})
}
