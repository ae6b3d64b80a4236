// Package stats implements the descriptive statistics used by the UbuntuOne
// measurement study: empirical CDFs, quantiles, histograms, autocorrelation,
// Lorenz curves and Gini coefficients, Pearson correlation, box-plot summaries
// and maximum-likelihood power-law fits — and, in the other direction, the
// random-variate samplers and splitmix64 streams the generative models draw
// from (dist.go, splitmix*.go).
//
// The Go ecosystem has no canonical statistics stack, so everything the
// analysis layer needs is implemented here from first principles on top of
// the standard library. All functions are deterministic and allocation-aware;
// the heavier ones (quantiles, Gini) sort copies of their input and leave the
// caller's slice untouched unless documented otherwise.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs (dividing by n, not n-1),
// or 0 when xs has fewer than two elements. The two-pass algorithm keeps the
// result numerically stable for the long-tailed samples this package handles.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// CoefVar returns the coefficient of variation (σ/µ), or 0 when the mean is 0.
// The load-balancing analysis (Fig. 14) uses it to compare dispersion across
// time bins with very different absolute request counts.
func CoefVar(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / m
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// MinMax returns the smallest and largest values in xs.
// It returns (0, 0) for an empty slice.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between closest ranks (the R-7 estimator, the default in most
// statistics environments). It sorts a copy of xs. It returns 0 for an empty
// slice and clamps q into [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// quantileSorted is Quantile on an already-sorted slice.
func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 0.5-quantile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Quantiles returns the values of xs at each of the requested quantiles,
// sorting xs only once. The returned slice is parallel to qs.
func Quantiles(xs []float64, qs ...float64) []float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = quantileSorted(sorted, q)
	}
	return out
}

// BoxPlot holds the five-number summary plus mean that the paper's box plots
// (e.g. the R/W-ratio inset of Fig. 2c) display.
type BoxPlot struct {
	Min, Q1, Median, Q3, Max float64
	Mean                     float64
	N                        int
}

// NewBoxPlot computes the five-number summary of xs.
func NewBoxPlot(xs []float64) BoxPlot {
	if len(xs) == 0 {
		return BoxPlot{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return BoxPlot{
		Min:    sorted[0],
		Q1:     quantileSorted(sorted, 0.25),
		Median: quantileSorted(sorted, 0.5),
		Q3:     quantileSorted(sorted, 0.75),
		Max:    sorted[len(sorted)-1],
		Mean:   Mean(sorted),
		N:      len(sorted),
	}
}

// String renders the summary on one line, in the spirit of the paper's
// box-plot annotations.
func (b BoxPlot) String() string {
	return fmt.Sprintf("n=%d min=%.4g q1=%.4g med=%.4g q3=%.4g max=%.4g mean=%.4g",
		b.N, b.Min, b.Q1, b.Median, b.Q3, b.Max, b.Mean)
}

// Pearson returns the Pearson product-moment correlation coefficient between
// xs and ys. The paper reports ρ = 0.998 between files and directories per
// volume (Fig. 10). It returns 0 when the slices differ in length, are
// shorter than 2, or either has zero variance.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
