package slurm

import (
	"strconv"
	"time"
)

// AppendMemory appends bytes in Slurm's usual whole-unit form, picking
// the largest binary unit that divides cleanly enough to keep one
// decimal, then the per-node ("n") or per-CPU ("c") qualifier ReqMem
// carries.
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

// maxExactSize is the largest byte count a float64 holds exactly (2^53).
// Up to it, bytes/div is exact for every binary unit, as strconv's input
// is; past it float64(bytes) rounds, and appendSize formats that
// rounding the way it always has.
const maxExactSize = 1 << 53

// appendSize appends a byte quantity without a qualifier, the form the
// usage columns (MaxRSS, VMSize, …) and mem-like TRES values use: a
// whole number of the largest unit it reaches, else that unit to two
// decimals, rounded half to even like strconv.AppendFloat's 'f' format.
func appendSize(dst []byte, bytes int64) []byte {
	for _, u := range memUnits {
		if bytes < u.div {
			continue
		}
		if bytes%u.div == 0 {
			return append(strconv.AppendInt(dst, bytes/u.div, 10), u.name)
		}
		if bytes <= maxExactSize {
			q, r := bytes*100/u.div, bytes*100%u.div
			if 2*r > u.div || 2*r == u.div && q%2 == 1 {
				q++
			}
			return append(appendHundredths(dst, q), u.name)
		}
		v := float64(bytes) / float64(u.div)
		if v == float64(int64(v)) {
			return append(strconv.AppendInt(dst, int64(v), 10), u.name)
		}
		return append(strconv.AppendFloat(dst, v, 'f', 2, 64), u.name)
	}
	return strconv.AppendInt(dst, bytes, 10)
}

// AppendMinutes appends d in minutes to two decimals: the bytes
// strconv.AppendFloat(dst, d.Minutes(), 'f', 2, 64) gives. A whole
// number of seconds s ≥ 0 is 5s/3 hundredths, whose fraction is 0, 1/3
// or 2/3 and never a tie, so it renders from integers; a negative d or a
// sub-second part takes strconv.
func AppendMinutes(dst []byte, d time.Duration) []byte {
	if d < 0 || d%time.Second != 0 {
		return strconv.AppendFloat(dst, d.Minutes(), 'f', 2, 64)
	}
	return appendHundredths(dst, (5*int64(d/time.Second)+1)/3)
}

// appendHundredths appends q/100 with exactly two decimals, q ≥ 0.
func appendHundredths(dst []byte, q int64) []byte {
	dst = strconv.AppendInt(dst, q/100, 10)
	r := q % 100
	return append(dst, '.', byte('0'+r/10), byte('0'+r%10))
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
