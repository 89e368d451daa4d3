package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie above a reported
// tail percentile: a percentile with fewer samples beyond it is decided
// by a handful of outliers and does not repeat from run to run.
const minBeyond = 10

// percentile returns the nearest-rank q-th percentile (0 < q <= 100) of
// xs: the smallest sample with at least q% of the samples at or below
// it. xs need not be sorted and is not modified. It returns NaN for an
// empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	return s[rankIndex(len(s), q)]
}

// rankIndex is the 0-based index of the nearest-rank q-th percentile of
// n sorted samples.
func rankIndex(n int, q float64) int {
	// q·n/100 is exact for integral q; the epsilon keeps a rank that is
	// integral up to rounding from stepping one past it.
	k := int(math.Ceil(q*float64(n)/100 - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k - 1
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// tail is a tail percentile together with the evidence behind it.
type tail struct {
	Value  float64 // the sample at the percentile
	Pct    float64 // the percentile actually reported
	N      int     // samples in the distribution
	Beyond int     // samples strictly above the reported rank
}

// tailPercentile reports the highest percentile not above want that
// still has at least minBeyond samples beyond it. With n samples that is
// want itself when n·(1−want/100) >= minBeyond, and otherwise the
// percentile of rank n−minBeyond. With minBeyond or fewer samples no
// percentile qualifies; the median is reported so the value is still a
// real sample, and Beyond tells the reader it is not a tail.
func tailPercentile(xs []float64, want float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{Value: math.NaN()}
	}
	s := sortedCopy(xs)
	pct, i := want, rankIndex(n, want)
	if n-1-i < minBeyond {
		if n <= minBeyond {
			pct, i = 50, rankIndex(n, 50)
		} else {
			// Rank n−minBeyond (1-based) is the highest rank with
			// minBeyond samples above it.
			i = n - minBeyond - 1
			pct = 100 * float64(i+1) / float64(n)
		}
	}
	return tail{Value: s[i], Pct: pct, N: n, Beyond: n - 1 - i}
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so the spreads printed here match the ones the acceptance check takes.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	s := sortedCopy(xs)
	if n == 1 {
		return s[0], s[0]
	}
	// statistics.quantiles, method="exclusive": the clamp on j comes
	// before delta, so tiny samples extrapolate exactly as Python does.
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	//qa:allow float-eq division guard on an exact zero median
	if m == 0 || math.IsNaN(m) {
		return math.NaN()
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
