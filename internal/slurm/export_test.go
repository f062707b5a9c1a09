package slurm

import (
	"strconv"
	"strings"
	"time"
)

// The string forms of the renderers and of the TRES parser: the
// references the parse, round-trip and fuzz tests compare against. The
// encoder and decoder use only the append and byte forms.

// FormatDuration renders a duration in AppendDuration's form.
func FormatDuration(d time.Duration) string {
	var buf [20]byte
	return string(AppendDuration(buf[:0], d))
}

// FormatTime renders a timestamp in AppendTime's form.
func FormatTime(t time.Time) string {
	var buf [len(timeLayout)]byte
	return string(AppendTime(buf[:0], t))
}

// FormatCount renders a count the way sacct abbreviates large numbers:
// values ≥ 10000 collapse to a one-decimal K/M suffix, a zero decimal
// dropped (9.0K → "9K"). Nothing in the module writes that form; the
// count parser reads it.
func FormatCount(n int64) string {
	switch {
	case n >= 10_000_000:
		return oneDecimal(float64(n)/1e6) + "M"
	case n >= 10_000:
		return oneDecimal(float64(n)/1e3) + "K"
	}
	return strconv.FormatInt(n, 10)
}

func oneDecimal(v float64) string {
	return strings.TrimSuffix(strconv.FormatFloat(v, 'f', 1, 64), ".0")
}

// FormatMemory renders bytes in AppendMemory's form.
func FormatMemory(bytes int64, perCPU bool) string {
	var buf [32]byte
	return string(AppendMemory(buf[:0], bytes, perCPU))
}

// ParseTRES parses a TRES string. An empty string yields an empty map.
func ParseTRES(s string) (TRES, error) {
	var t TRES
	parsed, err := parseTRES(&t, []byte(s), nil)
	if parsed == nil && err == nil {
		return TRES{}, nil
	}
	return parsed, err
}
