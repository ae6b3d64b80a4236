package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Buckets partitions observations using explicit boundaries, as in the
// paper's file-size categories of Fig. 2b ({0.5, 1, 5, 25} MB produces the
// five classes x<0.5, 0.5≤x<1, 1≤x<5, 5≤x<25, 25≤x). Each bucket tracks both
// a count and a weight sum so "fraction of operations" and "fraction of
// transferred data" come from the same pass.
type Buckets struct {
	Bounds  []float64 // ascending upper bounds; one extra implicit +inf bucket
	Counts  []uint64
	Weights []float64
}

// NewBuckets creates buckets from ascending boundaries. len(Counts) is
// len(bounds)+1. It panics on unsorted bounds.
func NewBuckets(bounds ...float64) *Buckets {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("stats: bucket bounds must be strictly ascending")
		}
	}
	b := append([]float64(nil), bounds...)
	return &Buckets{
		Bounds:  b,
		Counts:  make([]uint64, len(b)+1),
		Weights: make([]float64, len(b)+1),
	}
}

// Add records an observation x with weight w (e.g. x = file size, w = bytes
// transferred).
func (b *Buckets) Add(x, w float64) {
	i := sort.SearchFloat64s(b.Bounds, x)
	// SearchFloat64s returns the first bound >= x; x equal to a bound belongs
	// to the bucket above it (categories are half-open [lo, hi)).
	if i < len(b.Bounds) && b.Bounds[i] == x {
		i++
	}
	b.Counts[i]++
	b.Weights[i] += w
}

// CountFractions returns each bucket's share of total observations.
func (b *Buckets) CountFractions() []float64 {
	var total uint64
	for _, c := range b.Counts {
		total += c
	}
	out := make([]float64, len(b.Counts))
	if total == 0 {
		return out
	}
	for i, c := range b.Counts {
		out[i] = float64(c) / float64(total)
	}
	return out
}

// WeightFractions returns each bucket's share of total weight.
func (b *Buckets) WeightFractions() []float64 {
	total := Sum(b.Weights)
	out := make([]float64, len(b.Weights))
	if total == 0 {
		return out
	}
	for i, w := range b.Weights {
		out[i] = w / total
	}
	return out
}

// Label returns a human-readable range label for bucket i, using unit as the
// suffix (e.g. "x<0.5MB", "0.5MB<x<1MB", "25MB<x").
func (b *Buckets) Label(i int, unit string) string {
	switch {
	case len(b.Bounds) == 0:
		return "all"
	case i == 0:
		return fmt.Sprintf("x<%g%s", b.Bounds[0], unit)
	case i == len(b.Bounds):
		return fmt.Sprintf("%g%s<x", b.Bounds[len(b.Bounds)-1], unit)
	default:
		return fmt.Sprintf("%g%s<x<%g%s", b.Bounds[i-1], unit, b.Bounds[i], unit)
	}
}

// TimeSeries accumulates per-bin values over a fixed time grid. All the
// paper's time-series figures (2a, 5, 6, 14, 15) are per-hour or per-minute
// bins over the 30-day trace.
type TimeSeries struct {
	Start time.Time
	Bin   time.Duration
	Vals  []float64
}

// NewTimeSeries creates a series of n bins of width bin starting at start.
func NewTimeSeries(start time.Time, bin time.Duration, n int) *TimeSeries {
	return &TimeSeries{Start: start, Bin: bin, Vals: make([]float64, n)}
}

// Add accumulates v into the bin containing t. Observations outside the grid
// are ignored (the trace occasionally carries records that spill past the
// cut, mirroring the paper's parse-failure tolerance).
func (ts *TimeSeries) Add(t time.Time, v float64) {
	if i, ok := ts.Index(t); ok {
		ts.Vals[i] += v
	}
}

// Index returns the bin index of t and whether it is inside the grid.
// Times before Start are out of grid (integer division would otherwise
// truncate small negative offsets into bin 0).
func (ts *TimeSeries) Index(t time.Time) (int, bool) {
	if t.Before(ts.Start) {
		return -1, false
	}
	i := int(t.Sub(ts.Start) / ts.Bin)
	return i, i < len(ts.Vals)
}

// BinStart returns the start time of bin i.
func (ts *TimeSeries) BinStart(i int) time.Time {
	return ts.Start.Add(time.Duration(i) * ts.Bin)
}

// HourOfDay averages the series by hour-of-day, returning 24 means. Used to
// expose diurnal patterns (e.g. the 6am–3pm R/W-ratio decay in §5.1).
func (ts *TimeSeries) HourOfDay() [24]float64 {
	var sums, counts [24]float64
	for i, v := range ts.Vals {
		h := ts.BinStart(i).Hour()
		sums[h] += v
		counts[h]++
	}
	var out [24]float64
	for h := range out {
		if counts[h] > 0 {
			out[h] = sums[h] / counts[h]
		}
	}
	return out
}

// NonZero returns the values of bins with non-zero content. Ratio-style
// analyses exclude empty bins rather than treating them as zeros.
func (ts *TimeSeries) NonZero() []float64 {
	out := make([]float64, 0, len(ts.Vals))
	for _, v := range ts.Vals {
		if v != 0 && !math.IsNaN(v) {
			out = append(out, v)
		}
	}
	return out
}
