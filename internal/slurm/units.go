package slurm

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ParseCount parses a Slurm count field (NNodes, NCPUs, NTasks). sacct
// abbreviates large counts with decimal magnitude suffixes (K = 1000,
// M = 1e6, G = 1e9), optionally with a fraction, e.g. "9.4K" nodes.
func ParseCount(s string) (int64, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, fmt.Errorf("slurm: empty count")
	}
	mult := int64(1)
	switch last := t[len(t)-1]; last {
	case 'K', 'k':
		mult, t = 1_000, t[:len(t)-1]
	case 'M', 'm':
		mult, t = 1_000_000, t[:len(t)-1]
	case 'G', 'g':
		mult, t = 1_000_000_000, t[:len(t)-1]
	}
	if mult == 1 {
		n, err := strconv.ParseInt(t, 10, 64)
		if err != nil || n < 0 {
			return 0, fmt.Errorf("slurm: bad count %q", s)
		}
		return n, nil
	}
	f, err := strconv.ParseFloat(t, 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) || f < 0 || f*float64(mult) > float64(1<<62) {
		return 0, fmt.Errorf("slurm: bad count %q", s)
	}
	return int64(f*float64(mult) + 0.5), nil
}

// FormatCount renders a count the way sacct abbreviates large numbers:
// values ≥ 10000 collapse to a one-decimal K/M suffix.
func FormatCount(n int64) string {
	var buf [24]byte
	return string(AppendCount(buf[:0], n))
}

// AppendCount appends n in FormatCount's form.
func AppendCount(dst []byte, n int64) []byte {
	switch {
	case n >= 10_000_000:
		return append(appendOneDecimal(dst, float64(n)/1e6), 'M')
	case n >= 10_000:
		return append(appendOneDecimal(dst, float64(n)/1e3), 'K')
	default:
		return strconv.AppendInt(dst, n, 10)
	}
}

// appendOneDecimal appends v rounded to one decimal, dropping a zero
// one: 9.0 → "9", 9.4 → "9.4".
func appendOneDecimal(dst []byte, v float64) []byte {
	dst = strconv.AppendFloat(dst, v, 'f', 1, 64)
	if n := len(dst); dst[n-1] == '0' {
		dst = dst[:n-2]
	}
	return dst
}

// ParseMemory parses a Slurm memory field (ReqMem, MaxRSS, AveRSS, VMSize)
// into bytes. Slurm memory sizes are binary: 1K = 1024. ReqMem carries a
// per-node ("n") or per-CPU ("c") qualifier which is returned separately.
func ParseMemory(s string) (bytes int64, perCPU bool, err error) {
	t := strings.TrimSpace(s)
	if t == "" || t == "0" {
		return 0, false, nil
	}
	switch t[len(t)-1] {
	case 'n', 'N':
		t = t[:len(t)-1]
	case 'c', 'C':
		perCPU, t = true, t[:len(t)-1]
	}
	mult := int64(1)
	if t != "" {
		switch t[len(t)-1] {
		case 'K', 'k':
			mult, t = 1<<10, t[:len(t)-1]
		case 'M', 'm':
			mult, t = 1<<20, t[:len(t)-1]
		case 'G', 'g':
			mult, t = 1<<30, t[:len(t)-1]
		case 'T', 't':
			mult, t = 1<<40, t[:len(t)-1]
		}
	}
	f, ferr := strconv.ParseFloat(t, 64)
	if ferr != nil || math.IsNaN(f) || math.IsInf(f, 0) || f < 0 || f*float64(mult) > float64(1<<62) {
		return 0, false, fmt.Errorf("slurm: bad memory size %q", s)
	}
	return int64(f * float64(mult)), perCPU, nil
}

// FormatMemory renders bytes in Slurm's usual whole-unit form, picking the
// largest binary unit that divides cleanly enough to keep one decimal.
func FormatMemory(bytes int64, perCPU bool) string {
	var buf [32]byte
	return string(AppendMemory(buf[:0], bytes, perCPU))
}

// AppendMemory appends bytes in FormatMemory's form: the size, then the
// per-node ("n") or per-CPU ("c") qualifier ReqMem carries.
func AppendMemory(dst []byte, bytes int64, perCPU bool) []byte {
	if perCPU {
		return append(appendSize(dst, bytes), 'c')
	}
	return append(appendSize(dst, bytes), 'n')
}

// memUnits are the binary units appendSize picks from, largest first.
var memUnits = [...]struct {
	div  int64
	name byte
}{{1 << 40, 'T'}, {1 << 30, 'G'}, {1 << 20, 'M'}, {1 << 10, 'K'}}

// appendSize appends a byte quantity without a qualifier, the form the
// usage columns (MaxRSS, VMSize, …) and mem-like TRES values use.
func appendSize(dst []byte, bytes int64) []byte {
	for _, u := range memUnits {
		if bytes >= u.div {
			v := float64(bytes) / float64(u.div)
			if v == float64(int64(v)) {
				return append(strconv.AppendInt(dst, int64(v), 10), u.name)
			}
			return append(strconv.AppendFloat(dst, v, 'f', 2, 64), u.name)
		}
	}
	return strconv.AppendInt(dst, bytes, 10)
}

// ParseExitCode parses sacct's "exit:signal" ExitCode column.
func ParseExitCode(s string) (exit, signal int, err error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, 0, nil
	}
	i := strings.IndexByte(t, ':')
	if i < 0 {
		e, err := strconv.Atoi(t)
		return e, 0, err
	}
	e, err1 := strconv.Atoi(t[:i])
	sig, err2 := strconv.Atoi(t[i+1:])
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("slurm: bad exit code %q", s)
	}
	return e, sig, nil
}

// FormatExitCode renders the "exit:signal" pair.
func FormatExitCode(exit, signal int) string {
	var buf [24]byte
	return string(AppendExitCode(buf[:0], exit, signal))
}

// AppendExitCode appends the "exit:signal" pair.
func AppendExitCode(dst []byte, exit, signal int) []byte {
	dst = strconv.AppendInt(dst, int64(exit), 10)
	dst = append(dst, ':')
	return strconv.AppendInt(dst, int64(signal), 10)
}
