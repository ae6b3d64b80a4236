package stats

import (
	"fmt"
	"math"
	"strings"
)

// Figure helpers no analysis draws with: a gnuplot block writer, sampled CDF
// curves, a fixed-width histogram, a ratio of series and the power-law CCDF
// pair. They live here so their tests keep pinning the math.

// Point is one (x, y) pair of a sampled curve.
type Point struct {
	X, Y float64
}

// Dat renders points as a two-column gnuplot-compatible data block with a
// header comment naming the series.
func Dat(name string, pts []Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", name)
	for _, p := range pts {
		fmt.Fprintf(&b, "%g\t%g\n", p.X, p.Y)
	}
	return b.String()
}

// Histogram counts observations into fixed-width bins over [Lo, Hi).
// Out-of-range observations are tallied in Under/Over rather than dropped,
// so totals remain auditable.
type Histogram struct {
	Lo, Hi      float64
	Counts      []uint64
	Under, Over uint64
}

// NewHistogram creates a histogram with n bins covering [lo, hi).
// It panics if n < 1 or hi <= lo, which are programming errors.
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n < 1 {
		panic("stats: histogram needs at least one bin")
	}
	if hi <= lo {
		panic("stats: histogram range is empty")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]uint64, n)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		i := int(float64(len(h.Counts)) * (x - h.Lo) / (h.Hi - h.Lo))
		if i == len(h.Counts) { // guard against float rounding at the edge
			i--
		}
		h.Counts[i]++
	}
}

// Total returns the number of observations recorded, including out-of-range.
func (h *Histogram) Total() uint64 {
	t := h.Under + h.Over
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + w*(float64(i)+0.5)
}

// Ratio returns a new series of a.Vals[i]/b.Vals[i], skipping (leaving zero)
// bins where b is zero. The two series must share their grid; it panics
// otherwise, as that is a programming error.
func Ratio(a, b *TimeSeries) *TimeSeries {
	if !a.Start.Equal(b.Start) || a.Bin != b.Bin || len(a.Vals) != len(b.Vals) {
		panic("stats: ratio of incompatible time series")
	}
	out := NewTimeSeries(a.Start, a.Bin, len(a.Vals))
	for i := range a.Vals {
		if b.Vals[i] != 0 {
			out.Vals[i] = a.Vals[i] / b.Vals[i]
		}
	}
	return out
}

// CCDFPoints returns the empirical complementary CDF of xs sampled at
// logarithmically spaced x values, suitable for the log-log plots of Fig. 9b.
func CCDFPoints(xs []float64, n int) []Point {
	c := NewCDF(xs)
	pts := c.LogPoints(n)
	for i := range pts {
		pts[i].Y = 1 - pts[i].Y
	}
	return pts
}

// ModelCCDF evaluates the fitted Pareto CCDF at x.
func (f PowerLawFit) ModelCCDF(x float64) float64 {
	if x < f.Theta || f.Theta <= 0 || f.Alpha <= 1 {
		return 1
	}
	return math.Pow(x/f.Theta, -(f.Alpha - 1))
}

// LogPoints samples the CDF at n points spaced logarithmically in x between
// the smallest positive sample value and the maximum. Figures with x on a log
// axis (file sizes, inter-operation times, service times) use this sampling.
func (c *CDF) LogPoints(n int) []Point {
	if len(c.sorted) == 0 {
		return nil
	}
	lo := math.NaN()
	for _, v := range c.sorted {
		if v > 0 {
			lo = v
			break
		}
	}
	hi := c.Max()
	if math.IsNaN(lo) || hi <= lo {
		return c.Points(n)
	}
	if n < 2 {
		n = 2
	}
	llo, lhi := math.Log10(lo), math.Log10(hi)
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		x := math.Pow(10, llo+(lhi-llo)*float64(i)/float64(n-1))
		pts = append(pts, Point{X: x, Y: c.At(x)})
	}
	return pts
}

// Points samples the CDF at n evenly spaced quantiles (plus the extremes) so
// it can be plotted or written to a .dat file. For n < 2 it returns the two
// extreme points.
func (c *CDF) Points(n int) []Point {
	if len(c.sorted) == 0 {
		return nil
	}
	if n < 2 {
		n = 2
	}
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		q := float64(i) / float64(n-1)
		pts = append(pts, Point{X: quantileSorted(c.sorted, q), Y: q})
	}
	return pts
}
