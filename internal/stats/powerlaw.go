package stats

import (
	"math"
	"sort"
)

// PowerLawFit is the result of fitting P(X ≥ x) ≈ (x/θ)^{-(α-1)} to the tail
// of a sample, i.e. a Pareto density p(x) ∝ x^{-α} for x > θ. The paper fits
// user inter-operation times this way (Fig. 9b: Upload α=1.54, θ=41.37;
// Unlink α=1.44, θ=19.51) and concludes that 1 < α < 2 signals bursty,
// non-Poisson behavior with diverging variance.
type PowerLawFit struct {
	Alpha float64 // scaling exponent of the density, p(x) ∝ x^-α
	Theta float64 // lower cutoff (xmin) where power-law behavior starts
	NTail int     // sample points above Theta used in the fit
	KS    float64 // Kolmogorov–Smirnov distance between tail and model
}

// FitPowerLaw estimates α for a fixed cutoff θ using the continuous
// maximum-likelihood (Hill) estimator of Clauset, Shalizi & Newman:
//
//	α̂ = 1 + n / Σ ln(x_i/θ) over the n samples with x_i ≥ θ.
//
// Samples at or below 0 or below θ are ignored. It returns a zero fit when
// fewer than two samples exceed θ.
func FitPowerLaw(xs []float64, theta float64) PowerLawFit {
	if theta <= 0 {
		return PowerLawFit{}
	}
	var n int
	var logSum float64
	tail := make([]float64, 0, len(xs)/4)
	for _, x := range xs {
		if x >= theta && x > 0 {
			n++
			logSum += math.Log(x / theta)
			tail = append(tail, x)
		}
	}
	if n < 2 || logSum <= 0 {
		return PowerLawFit{Theta: theta, NTail: n}
	}
	alpha := 1 + float64(n)/logSum
	fit := PowerLawFit{Alpha: alpha, Theta: theta, NTail: n}
	fit.KS = ksDistance(tail, alpha, theta)
	return fit
}

// FitPowerLawAuto scans candidate cutoffs (quantiles of the positive sample)
// and returns the fit minimizing the Kolmogorov–Smirnov distance, the
// standard model-selection rule for power laws. nCandidates controls the scan
// resolution; 50 is plenty for the trace sizes used here.
func FitPowerLawAuto(xs []float64, nCandidates int) PowerLawFit {
	pos := make([]float64, 0, len(xs))
	for _, x := range xs {
		if x > 0 {
			pos = append(pos, x)
		}
	}
	if len(pos) < 10 {
		return PowerLawFit{}
	}
	sort.Float64s(pos)
	if nCandidates < 2 {
		nCandidates = 2
	}
	best := PowerLawFit{KS: math.Inf(1)}
	// Candidate cutoffs between the 1st and 90th percentile: fitting a tail
	// needs enough points above θ to be meaningful.
	for i := 0; i < nCandidates; i++ {
		q := 0.01 + 0.89*float64(i)/float64(nCandidates-1)
		theta := quantileSorted(pos, q)
		if theta <= 0 {
			continue
		}
		fit := FitPowerLaw(pos, theta)
		if fit.NTail >= 10 && fit.KS < best.KS {
			best = fit
		}
	}
	if math.IsInf(best.KS, 1) {
		return PowerLawFit{}
	}
	return best
}

// ksDistance returns the KS statistic between the empirical CCDF of the tail
// sample (all ≥ theta) and the fitted Pareto CCDF (x/θ)^{-(α-1)}.
func ksDistance(tail []float64, alpha, theta float64) float64 {
	sort.Float64s(tail)
	n := float64(len(tail))
	var maxDist float64
	for i, x := range tail {
		model := math.Pow(x/theta, -(alpha - 1))
		empAbove := 1 - float64(i)/n   // empirical CCDF just below x
		empBelow := 1 - float64(i+1)/n // empirical CCDF just above x
		if d := math.Abs(model - empAbove); d > maxDist {
			maxDist = d
		}
		if d := math.Abs(model - empBelow); d > maxDist {
			maxDist = d
		}
	}
	return maxDist
}

// Bursty reports whether the fit indicates bursty non-Poisson behavior in the
// paper's sense: a tail exponent 1 < α < 2 over a non-trivial tail.
func (f PowerLawFit) Bursty() bool {
	return f.NTail >= 10 && f.Alpha > 1 && f.Alpha < 2
}
