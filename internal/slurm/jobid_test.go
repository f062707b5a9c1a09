package slurm

import (
	"testing"
	"testing/quick"
)

func TestJobIDString(t *testing.T) {
	cases := []struct {
		id   JobID
		want string
	}{
		{NewJobID(12345), "12345"},
		{NewJobID(12345).WithBatch(), "12345.batch"},
		{NewJobID(12345).WithStep(0), "12345.0"},
		{NewJobID(12345).WithStep(17), "12345.17"},
		{JobID{Job: 7, Array: 3}, "7_3"},
		{JobID{Job: 7, Array: 3, Kind: StepNumbered, Step: 2}, "7_3.2"},
		{JobID{Job: 9, Array: -1, Kind: StepExtern}, "9.extern"},
	}
	for _, c := range cases {
		if got := c.id.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestParseJobID(t *testing.T) {
	for _, in := range []string{"12345", "12345.batch", "12345.extern", "12345.0", "12345.17", "7_3", "7_3.2"} {
		id, err := ParseJobIDBytes([]byte(in))
		if err != nil {
			t.Errorf("ParseJobIDBytes(%q): %v", in, err)
			continue
		}
		if got := id.String(); got != in {
			t.Errorf("round trip %q → %q", in, got)
		}
	}
	for _, in := range []string{"", "abc", "0", "-3", "12.x9", "1_-2", "1_a"} {
		if _, err := ParseJobIDBytes([]byte(in)); err == nil {
			t.Errorf("ParseJobIDBytes(%q): want error", in)
		}
	}
}

func TestJobIDBase(t *testing.T) {
	id := NewJobID(42).WithStep(3)
	if !id.IsStep() {
		t.Error("WithStep: IsStep() = false")
	}
	base := id.Base()
	if base.IsStep() || base.Job != 42 {
		t.Errorf("Base() = %v", base)
	}
}

func TestCompareJobID(t *testing.T) {
	ordered := []JobID{
		NewJobID(1),
		NewJobID(1).WithBatch(),
		{Job: 1, Array: -1, Kind: StepExtern},
		NewJobID(1).WithStep(0),
		NewJobID(1).WithStep(1),
		{Job: 2, Array: 0},
		{Job: 2, Array: 1},
		NewJobID(3),
	}
	for i := range ordered {
		for j := range ordered {
			got := CompareJobID(ordered[i], ordered[j])
			switch {
			case i < j && got >= 0:
				t.Errorf("Compare(%v,%v) = %d, want <0", ordered[i], ordered[j], got)
			case i > j && got <= 0:
				t.Errorf("Compare(%v,%v) = %d, want >0", ordered[i], ordered[j], got)
			case i == j && got != 0:
				t.Errorf("Compare(%v,%v) = %d, want 0", ordered[i], ordered[j], got)
			}
		}
	}
}

func TestJobIDRoundTripProperty(t *testing.T) {
	f := func(job uint32, step uint8, hasStep bool) bool {
		id := NewJobID(int64(job) + 1)
		if hasStep {
			id = id.WithStep(int64(step))
		}
		parsed, err := ParseJobIDBytes([]byte(id.String()))
		return err == nil && parsed == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
