package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 8 || !almostEq(s.Mean, 5, 1e-12) || !almostEq(s.Sum, 40, 1e-12) {
		t.Errorf("Summary = %+v", s)
	}
	if !almostEq(s.Std, math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("Std = %v", s.Std)
	}
	if s.Min != 2 || s.Max != 9 || !almostEq(s.Median, 4.5, 1e-12) {
		t.Errorf("extremes/median: %+v", s)
	}
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Errorf("Summarize(nil) err = %v", err)
	}
}

func TestAccumulatorMatchesBatch(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		var acc Accumulator
		for i, v := range raw {
			xs[i] = float64(v)
			acc.Add(float64(v))
		}
		want, _ := Summarize(xs)
		got := acc.Summary()
		return got.N == want.N &&
			almostEq(got.Mean, want.Mean, 1e-9) &&
			almostEq(got.Std, want.Std, 1e-9) &&
			got.Min == want.Min && got.Max == want.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	} {
		got, err := Quantile(xs, c.q)
		if err != nil || !almostEq(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, %v; want %v", c.q, got, err, c.want)
		}
	}
	// Input must not be mutated.
	ys := []float64{3, 1, 2}
	if _, err := Quantile(ys, 0.5); err != nil {
		t.Fatal(err)
	}
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Error("Quantile mutated its input")
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Error("Quantile(1.5): want error")
	}
	if _, err := Quantile(nil, 0.5); err != ErrEmpty {
		t.Error("Quantile(empty): want ErrEmpty")
	}
	one, _ := Quantile([]float64{7}, 0.99)
	if one != 7 {
		t.Errorf("single-element quantile = %v", one)
	}
}

func TestQuantilesMonotoneProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		qs, err := Quantiles(xs, 0.1, 0.25, 0.5, 0.75, 0.9)
		if err != nil {
			return false
		}
		for i := 1; i < len(qs); i++ {
			if qs[i] < qs[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	perfect, _ := Pearson(xs, []float64{2, 4, 6, 8})
	if !almostEq(perfect, 1, 1e-12) {
		t.Errorf("perfect correlation = %v", perfect)
	}
	anti, _ := Pearson(xs, []float64{8, 6, 4, 2})
	if !almostEq(anti, -1, 1e-12) {
		t.Errorf("anti correlation = %v", anti)
	}
	flat, _ := Pearson(xs, []float64{5, 5, 5, 5})
	if flat != 0 {
		t.Errorf("degenerate correlation = %v", flat)
	}
	if _, err := Pearson(xs, xs[:2]); err == nil {
		t.Error("length mismatch: want error")
	}
	if _, err := Pearson(nil, nil); err != ErrEmpty {
		t.Error("empty: want ErrEmpty")
	}
}

func TestSpearmanMonotone(t *testing.T) {
	// Any strictly monotone transform gives rank correlation 1.
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1, 8, 27, 64, 125}
	rho, err := Spearman(xs, ys)
	if err != nil || !almostEq(rho, 1, 1e-12) {
		t.Errorf("Spearman = %v, %v", rho, err)
	}
}

func TestRanksTies(t *testing.T) {
	r := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if !almostEq(r[i], want[i], 1e-12) {
			t.Errorf("Ranks = %v, want %v", r, want)
			break
		}
	}
}

func TestFitLine(t *testing.T) {
	fit, err := FitLine([]float64{0, 1, 2, 3}, []float64{1, 3, 5, 7})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(fit.Slope, 2, 1e-12) || !almostEq(fit.Intercept, 1, 1e-12) || !almostEq(fit.R2, 1, 1e-12) {
		t.Errorf("fit = %+v", fit)
	}
	if _, err := FitLine([]float64{1}, []float64{1}); err == nil {
		t.Error("short input: want error")
	}
	if _, err := FitLine([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("degenerate x: want error")
	}
}
