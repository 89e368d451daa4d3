package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the helpers must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(10) // 1..10
	for _, tc := range []struct{ q, want float64 }{
		{50, 5}, {10, 1}, {11, 2}, {90, 9}, {95, 10}, {100, 10},
	} {
		if got := percentile(xs, tc.q); got != tc.want { //qa:allow float-eq exact sample values
			t.Errorf("percentile(1..10, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n         int
		wantPct   float64
		wantValue float64
	}{
		{400, 95, 380}, // 20 samples beyond p95: p95 stands
		{200, 95, 190}, // exactly 10 beyond
		{199, 100 * 189.0 / 199, 189},
		{100, 90, 90},
		{53, 100 * 43.0 / 53, 43},
		{11, 100 * 1.0 / 11, 1},
		{10, 50, 5}, // no percentile has 10 beyond: the median, flagged
		{3, 50, 2},
	} {
		got := tailPercentile(seq(tc.n), 95)
		if got.N != tc.n {
			t.Errorf("n=%d: reported %d samples", tc.n, got.N)
		}
		if math.Abs(got.Pct-tc.wantPct) > 1e-9 || got.Value != tc.wantValue { //qa:allow float-eq exact sample values
			t.Errorf("n=%d: p%.3f = %v, want p%.3f = %v", tc.n, got.Pct, got.Value, tc.wantPct, tc.wantValue)
		}
		if tc.n > minBeyond && got.Beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond p%.3f", tc.n, got.Beyond, got.Pct)
		}
		if want := tc.n - int(tc.wantValue); got.Beyond != want {
			t.Errorf("n=%d: Beyond = %d, want %d", tc.n, got.Beyond, want)
		}
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{3, 1}, 0.5, 3.5}, // extrapolates like Python
		{[]float64{0.5, 0.7, 0.2, 0.9, 0.4}, 0.3, 0.8},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread(seq(10)); math.Abs(got-5.5/5) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want %v", got, 5.5/5)
	}
}
