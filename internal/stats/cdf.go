package stats

import (
	"sort"
)

// CDF is an empirical cumulative distribution function built from a sample.
// It backs every "CDF" figure in the paper (Figs. 3, 4, 7b, 11, 12, 16).
// The zero value is unusable; build one with NewCDF.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from xs. It copies and sorts the sample.
func NewCDF(xs []float64) *CDF {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return &CDF{sorted: sorted}
}

// N returns the sample size.
func (c *CDF) N() int { return len(c.sorted) }

// At returns P(X ≤ x), the fraction of the sample at or below x.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// sort.SearchFloat64s returns the first index with sorted[i] >= x; we
	// want the count of elements <= x, so search for the first element > x.
	i := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] > x })
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-quantile of the underlying sample.
func (c *CDF) Quantile(q float64) float64 { return quantileSorted(c.sorted, q) }

// Max returns the largest sample value (0 when empty).
func (c *CDF) Max() float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	return c.sorted[len(c.sorted)-1]
}
