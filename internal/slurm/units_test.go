package slurm

import (
	"testing"
	"testing/quick"
)

func TestParseCount(t *testing.T) {
	cases := []struct {
		in   string
		want int64
	}{
		{"0", 0},
		{"9408", 9408},
		{"2K", 2000},
		{"9.4K", 9400},
		{"1.5M", 1_500_000},
		{"2G", 2_000_000_000},
		{" 42 ", 42},
	}
	for _, c := range cases {
		got, err := ParseCountBytes([]byte(c.in))
		if err != nil || got != c.want {
			t.Errorf("ParseCountBytes(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
	}
	for _, in := range []string{"", "-1", "abc", "1.2.3K", "K"} {
		if _, err := ParseCountBytes([]byte(in)); err == nil {
			t.Errorf("ParseCountBytes(%q): want error", in)
		}
	}
}

func TestFormatCount(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{0, "0"},
		{9408, "9408"},
		{10_000, "10K"},
		{9_400, "9400"},
		{18_000_000, "18M"},
		{12_345, "12.3K"},
	}
	for _, c := range cases {
		if got := FormatCount(c.in); got != c.want {
			t.Errorf("FormatCount(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

// Counts below the abbreviation threshold must round-trip exactly; above
// it, within the one-decimal suffix precision.
func TestCountRoundTripProperty(t *testing.T) {
	f := func(n uint16) bool {
		v := int64(n)
		got, err := ParseCountBytes([]byte(FormatCount(v)))
		if err != nil {
			return false
		}
		if v < 10_000 {
			return got == v
		}
		diff := got - v
		if diff < 0 {
			diff = -diff
		}
		return diff*20 <= v // within 5%
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseMemory(t *testing.T) {
	cases := []struct {
		in     string
		want   int64
		perCPU bool
	}{
		{"0", 0, false},
		{"4000M", 4000 << 20, false},
		{"512Gn", 512 << 30, false},
		{"2Gc", 2 << 30, true},
		{"1.5K", 1536, false},
		{"1T", 1 << 40, false},
		{"", 0, false},
	}
	for _, c := range cases {
		got, perCPU, err := ParseMemoryBytes([]byte(c.in))
		if err != nil || got != c.want || perCPU != c.perCPU {
			t.Errorf("ParseMemoryBytes(%q) = %d, %v, %v; want %d, %v", c.in, got, perCPU, err, c.want, c.perCPU)
		}
	}
	for _, in := range []string{"abcM", "-3G", "12Q"} {
		if _, _, err := ParseMemoryBytes([]byte(in)); err == nil {
			t.Errorf("ParseMemoryBytes(%q): want error", in)
		}
	}
}

func TestFormatMemory(t *testing.T) {
	cases := []struct {
		bytes  int64
		perCPU bool
		want   string
	}{
		{0, false, "0n"},
		{4000 << 20, false, "3.91Gn"},
		{512 << 30, false, "512Gn"},
		{2 << 30, true, "2Gc"},
		{512, false, "512n"},
	}
	for _, c := range cases {
		if got := FormatMemory(c.bytes, c.perCPU); got != c.want {
			t.Errorf("FormatMemory(%d, %v) = %q, want %q", c.bytes, c.perCPU, got, c.want)
		}
	}
}

func TestMemoryRoundTripProperty(t *testing.T) {
	f := func(kb uint32, perCPU bool) bool {
		v := int64(kb) << 10
		got, gotPer, err := ParseMemoryBytes([]byte(FormatMemory(v, perCPU)))
		if err != nil || gotPer != perCPU {
			return false
		}
		// Two-decimal formatting loses at most 1% of the top unit.
		diff := got - v
		if diff < 0 {
			diff = -diff
		}
		return diff*100 <= v+(1<<10)*100
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExitCode(t *testing.T) {
	e, sig, err := ParseExitCodeBytes([]byte("1:9"))
	if err != nil || e != 1 || sig != 9 {
		t.Errorf("ParseExitCodeBytes(1:9) = %d,%d,%v", e, sig, err)
	}
	if got := FormatExitCode(0, 0); got != "0:0" {
		t.Errorf("FormatExitCode = %q", got)
	}
	if _, _, err := ParseExitCodeBytes([]byte("a:b")); err == nil {
		t.Error("ParseExitCodeBytes(a:b): want error")
	}
	e, sig, err = ParseExitCodeBytes(nil)
	if err != nil || e != 0 || sig != 0 {
		t.Errorf("ParseExitCodeBytes(empty) = %d,%d,%v", e, sig, err)
	}
}

// TestParseMemoryOfStringDoesNotAllocate: a []byte(s) conversion handed
// to ParseMemoryBytes stays free only while ParseMemoryBytes lets its
// argument neither escape nor be written; ParseTRES's []byte(s), whose
// mem-like values reach it, relies on that.
func TestParseMemoryOfStringDoesNotAllocate(t *testing.T) {
	val := "512G"
	if allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := ParseMemoryBytes([]byte(val)); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("ParseMemoryBytes([]byte(%q)) allocates %v times, want 0", val, allocs)
	}
}
