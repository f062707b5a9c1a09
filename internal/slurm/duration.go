package slurm

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// ParseDuration parses a Slurm elapsed/timelimit string. Accepted layouts,
// as produced by sacct and accepted by sbatch:
//
//	MM:SS
//	HH:MM:SS
//	D-HH
//	D-HH:MM
//	D-HH:MM:SS
//	MM (bare minutes, sbatch --time shorthand)
//	UNLIMITED / INVALID / empty → error
func ParseDuration(s string) (time.Duration, error) {
	t := strings.TrimSpace(s)
	if t == "" || strings.EqualFold(t, "UNLIMITED") || strings.EqualFold(t, "INVALID") {
		return 0, fmt.Errorf("slurm: unparseable duration %q", s)
	}
	var days int64
	if i := strings.IndexByte(t, '-'); i >= 0 {
		d, err := strconv.ParseInt(t[:i], 10, 64)
		if err != nil || d < 0 {
			return 0, fmt.Errorf("slurm: bad day count in duration %q", s)
		}
		days, t = d, t[i+1:]
	}
	parts := strings.Split(t, ":")
	for _, p := range parts {
		if p == "" {
			return 0, fmt.Errorf("slurm: empty component in duration %q", s)
		}
	}
	var h, m, sec int64
	var err error
	switch len(parts) {
	case 1:
		// D-HH when a day prefix was present, bare minutes otherwise.
		if days > 0 || strings.Contains(s, "-") {
			h, err = strconv.ParseInt(parts[0], 10, 64)
		} else {
			m, err = strconv.ParseInt(parts[0], 10, 64)
		}
	case 2:
		if strings.Contains(s, "-") {
			// D-HH:MM
			h, err = strconv.ParseInt(parts[0], 10, 64)
			if err == nil {
				m, err = strconv.ParseInt(parts[1], 10, 64)
			}
		} else {
			// MM:SS
			m, err = strconv.ParseInt(parts[0], 10, 64)
			if err == nil {
				sec, err = strconv.ParseInt(parts[1], 10, 64)
			}
		}
	case 3:
		h, err = strconv.ParseInt(parts[0], 10, 64)
		if err == nil {
			m, err = strconv.ParseInt(parts[1], 10, 64)
		}
		if err == nil {
			sec, err = strconv.ParseInt(parts[2], 10, 64)
		}
	default:
		return 0, fmt.Errorf("slurm: malformed duration %q", s)
	}
	if err != nil || h < 0 || m < 0 || sec < 0 {
		return 0, fmt.Errorf("slurm: malformed duration %q", s)
	}
	// Guard against int64-nanosecond overflow (time.Duration tops out
	// near 292 years); component caps keep the seconds arithmetic itself
	// overflow-free.
	const maxComponent = int64(1) << 33
	if days > maxComponent || h > maxComponent || m > maxComponent {
		return 0, fmt.Errorf("slurm: duration %q out of range", s)
	}
	totalSec := days*86400 + h*3600 + m*60 + sec
	if totalSec > int64(math.MaxInt64)/int64(time.Second) {
		return 0, fmt.Errorf("slurm: duration %q out of range", s)
	}
	return time.Duration(totalSec) * time.Second, nil
}

// FormatDuration renders a duration in canonical sacct form: HH:MM:SS for
// durations under a day, D-HH:MM:SS otherwise. Sub-second precision is
// truncated, matching sacct's whole-second accounting.
func FormatDuration(d time.Duration) string {
	var buf [20]byte
	return string(AppendDuration(buf[:0], d))
}

// AppendDuration appends d in FormatDuration's form.
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

// FormatTime renders a timestamp in sacct form; the zero time renders as
// "Unknown", matching sacct output for never-started jobs.
func FormatTime(t time.Time) string {
	var buf [len(timeLayout)]byte
	return string(AppendTime(buf[:0], t))
}

// AppendTime appends t in FormatTime's form.
func AppendTime(dst []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(dst, "Unknown"...)
	}
	return t.AppendFormat(dst, timeLayout)
}
