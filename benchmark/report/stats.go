// Package report holds what the benchmark prints and compares: order
// statistics over repetitions, the env block that makes a number
// reproducible, the JSON report, and the two-report comparison.
package report

import (
	"math"
	"sort"
)

// Summary is the order statistics of one metric over repetitions.
type Summary struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

// Summarize computes the order statistics of values.
func Summarize(unit, better string, values []float64) Summary {
	s := Summary{Unit: unit, Better: better, N: len(values), Values: values}
	if len(values) == 0 {
		return s
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	s.Median = Median(values)
	s.Q1, s.Q3 = Quartiles(values)
	return s
}

// Spread is the distance between the quartiles as a share of the median: the
// run-to-run noise figure bounds are derived from and verdicts are gated on.
func (s Summary) Spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// Median returns the median of values (0 for none).
func Median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// Quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(values, n=4) does (the exclusive method), so a spread
// computed here equals the one the driver computes from the same values.
// Fewer than two values yield the single value (or 0) for both.
func Quartiles(values []float64) (q1, q3 float64) {
	n := len(values)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return values[0], values[0]
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return at(1), at(3)
}

// Percentile returns the p-quantile (0..1) of an already sorted sample by
// nearest rank; percentiles of latencies are reported with their sample
// count so a reader can see how many samples lie beyond them.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
