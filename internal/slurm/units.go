package slurm

import "strconv"

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
