// Package stats provides the statistical primitives used across the
// SlurmSight analytics and the simulated LLM analyst: summary statistics,
// quantiles, histograms, correlation, and least-squares fits. All functions
// are pure and allocation-conscious; none mutate their inputs unless
// documented.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that need at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Summary holds the moments and extremes of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64 // sample (n-1) standard deviation; 0 when N < 2
	Min    float64
	Max    float64
	Sum    float64
	Median float64
}

// Summarize computes a Summary in one pass plus a selection for the median.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	var acc Accumulator
	for _, x := range xs {
		acc.Add(x)
	}
	s := acc.Summary()
	med, _ := Quantile(xs, 0.5)
	s.Median = med
	return s, nil
}

// Accumulator is a streaming mean/variance/extremes accumulator using
// Welford's algorithm; safe to copy before the first Add.
type Accumulator struct {
	n        int
	mean, m2 float64
	min, max float64
	sum      float64
}

// Add folds one observation into the accumulator.
func (a *Accumulator) Add(x float64) {
	a.n++
	a.sum += x
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// Std returns the running sample standard deviation (0 when N < 2).
func (a *Accumulator) Std() float64 {
	if a.n < 2 {
		return 0
	}
	return math.Sqrt(a.m2 / float64(a.n-1))
}

// Summary snapshots the accumulator (Median is not tracked and left 0).
func (a *Accumulator) Summary() Summary {
	return Summary{N: a.n, Mean: a.mean, Std: a.Std(), Min: a.min, Max: a.max, Sum: a.sum}
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between closest ranks (type-7, the numpy default). The
// input is not modified.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, errors.New("stats: quantile out of range")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q), nil
}

// Quantiles computes several quantiles with a single sort.
func Quantiles(xs []float64, qs ...float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	out := make([]float64, len(qs))
	for i, q := range qs {
		if q < 0 || q > 1 || math.IsNaN(q) {
			return nil, errors.New("stats: quantile out of range")
		}
		out[i] = quantileSorted(sorted, q)
	}
	return out, nil
}

func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Pearson returns the Pearson correlation coefficient of two equal-length
// samples. Degenerate (constant) inputs return 0.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if len(xs) != len(ys) {
		return 0, errors.New("stats: length mismatch")
	}
	n := float64(len(xs))
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Spearman returns the Spearman rank correlation, Pearson over ranks with
// ties assigned their average rank.
func Spearman(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: length mismatch")
	}
	rx, ry := Ranks(xs), Ranks(ys)
	return Pearson(rx, ry)
}

// Ranks returns 1-based average ranks of xs (ties share the mean rank).
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}

// LinearFit is a least-squares line y = Intercept + Slope·x.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// FitLine fits a least-squares line through (xs, ys).
func FitLine(xs, ys []float64) (LinearFit, error) {
	if len(xs) < 2 {
		return LinearFit{}, errors.New("stats: need at least 2 points")
	}
	if len(xs) != len(ys) {
		return LinearFit{}, errors.New("stats: length mismatch")
	}
	n := float64(len(xs))
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, errors.New("stats: degenerate x")
	}
	slope := sxy / sxx
	fit := LinearFit{Slope: slope, Intercept: my - slope*mx}
	if syy > 0 {
		fit.R2 = (sxy * sxy) / (sxx * syy)
	}
	return fit, nil
}
