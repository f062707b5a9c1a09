package slurm

import (
	"testing"
	"testing/quick"
	"time"
)

func TestParseDuration(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"00:00:00", 0},
		{"00:01:30", 90 * time.Second},
		{"02:03:04", 2*time.Hour + 3*time.Minute + 4*time.Second},
		{"1-02:03:04", 26*time.Hour + 3*time.Minute + 4*time.Second},
		{"10-00:00:00", 240 * time.Hour},
		{"05:30", 5*time.Minute + 30*time.Second},
		{"2-12", 60 * time.Hour},
		{"2-12:30", 60*time.Hour + 30*time.Minute},
		{"90", 90 * time.Minute},
		{" 01:00:00 ", time.Hour},
	}
	for _, c := range cases {
		got, err := ParseDurationBytes([]byte(c.in))
		if err != nil {
			t.Errorf("ParseDurationBytes(%q): unexpected error %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseDurationBytes(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseDurationErrors(t *testing.T) {
	for _, in := range []string{"", "UNLIMITED", "INVALID", "x:y:z", "1-", "-5", "1:2:3:4", "::", "1:-2"} {
		if _, err := ParseDurationBytes([]byte(in)); err == nil {
			t.Errorf("ParseDurationBytes(%q): want error, got nil", in)
		}
	}
}

func TestFormatDuration(t *testing.T) {
	cases := []struct {
		in   time.Duration
		want string
	}{
		{0, "00:00:00"},
		{90 * time.Second, "00:01:30"},
		{26*time.Hour + 3*time.Minute + 4*time.Second, "1-02:03:04"},
		{-time.Hour, "00:00:00"},
		{time.Second + 500*time.Millisecond, "00:00:01"},
	}
	for _, c := range cases {
		if got := FormatDuration(c.in); got != c.want {
			t.Errorf("FormatDuration(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

// Round-tripping any non-negative whole-second duration through
// Format/Parse must be the identity.
func TestDurationRoundTripProperty(t *testing.T) {
	f := func(secs uint32) bool {
		d := time.Duration(secs) * time.Second
		got, err := ParseDurationBytes([]byte(FormatDuration(d)))
		return err == nil && got == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseTime(t *testing.T) {
	ts, err := ParseTime("2024-03-15T10:30:00")
	if err != nil {
		t.Fatalf("ParseTime: %v", err)
	}
	want := time.Date(2024, 3, 15, 10, 30, 0, 0, time.UTC)
	if !ts.Equal(want) {
		t.Errorf("ParseTime = %v, want %v", ts, want)
	}
	for _, in := range []string{"Unknown", "None", ""} {
		z, err := ParseTime(in)
		if err != nil || !z.IsZero() {
			t.Errorf("ParseTime(%q) = %v, %v; want zero, nil", in, z, err)
		}
	}
	if _, err := ParseTime("2024-13-40T99:99:99"); err == nil {
		t.Error("ParseTime(garbage): want error")
	}
}

func TestFormatTimeZero(t *testing.T) {
	if got := FormatTime(time.Time{}); got != "Unknown" {
		t.Errorf("FormatTime(zero) = %q, want Unknown", got)
	}
	ts := time.Date(2023, 4, 1, 0, 0, 0, 0, time.UTC)
	if got := FormatTime(ts); got != "2023-04-01T00:00:00" {
		t.Errorf("FormatTime = %q", got)
	}
}

func TestTimeRoundTripProperty(t *testing.T) {
	f := func(offset uint32) bool {
		ts := time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(offset) * time.Second)
		got, err := ParseTime(FormatTime(ts))
		return err == nil && got.Equal(ts)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
