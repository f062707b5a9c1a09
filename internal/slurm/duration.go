package slurm

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// AppendDuration appends d in canonical sacct form: HH:MM:SS for
// durations under a day, D-HH:MM:SS otherwise. Sub-second precision is
// truncated, matching sacct's whole-second accounting.
func AppendDuration(dst []byte, d time.Duration) []byte {
	if d < 0 {
		d = 0
	}
	total := int64(d / time.Second)
	days := total / 86400
	total %= 86400
	h, m, s := total/3600, (total%3600)/60, total%60
	if days > 0 {
		dst = strconv.AppendInt(dst, days, 10)
		dst = append(dst, '-')
	}
	dst = appendTwo(dst, h)
	dst = append(dst, ':')
	dst = appendTwo(dst, m)
	dst = append(dst, ':')
	return appendTwo(dst, s)
}

// appendTwo appends v as two decimal digits (v must be in [0, 99]).
func appendTwo(b []byte, v int64) []byte {
	return append(b, byte('0'+v/10), byte('0'+v%10))
}

// sacct timestamps use ISO-8601 without a zone; the accounting DB stores
// cluster-local time.
const timeLayout = "2006-01-02T15:04:05"

// ParseTime parses a sacct timestamp. "Unknown" and "None" (emitted for
// jobs that never started) map to the zero time without error.
func ParseTime(s string) (time.Time, error) {
	t := strings.TrimSpace(s)
	if t == "" || strings.EqualFold(t, "Unknown") || strings.EqualFold(t, "None") {
		return time.Time{}, nil
	}
	ts, err := time.Parse(timeLayout, t)
	if err != nil {
		return time.Time{}, fmt.Errorf("slurm: bad timestamp %q", s)
	}
	return ts, nil
}

// AppendTime appends t in sacct form; the zero time renders as
// "Unknown", matching sacct output for never-started jobs.
func AppendTime(dst []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(dst, "Unknown"...)
	}
	return t.AppendFormat(dst, timeLayout)
}
