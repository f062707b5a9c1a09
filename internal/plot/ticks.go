package plot

import "math"

// niceTicks returns ~n pleasant tick positions covering [lo, hi].
func niceTicks(lo, hi float64, n int) []float64 {
	if n < 2 {
		n = 2
	}
	if lo == hi {
		hi = lo + 1
	}
	span := hi - lo
	step := math.Pow(10, math.Floor(math.Log10(span/float64(n))))
	for _, m := range []float64{1, 2, 5, 10} {
		if span/(step*m) <= float64(n) {
			step *= m
			break
		}
	}
	first := math.Ceil(lo/step) * step
	var out []float64
	for v := first; v <= hi+step/1e6; v += step {
		out = append(out, v)
	}
	return out
}

// logTicks returns decade ticks covering [lo, hi] (both positive).
func logTicks(lo, hi float64) []float64 {
	start := math.Floor(math.Log10(lo))
	end := math.Ceil(math.Log10(hi))
	var out []float64
	for e := start; e <= end; e++ {
		out = append(out, math.Pow(10, e))
	}
	return out
}
