package analysis

import (
	"fmt"
	"strings"
	"time"

	"u1/internal/plot"
	"u1/internal/stats"
)

// Traffic reproduces Fig. 2a (hourly transferred traffic) and Fig. 2b
// (traffic and operations by file-size category).
type Traffic struct {
	// Up and Down are GBytes/hour over the whole window.
	Up, Down *stats.TimeSeries
	// DayNightRatio is the peak-hour / trough-hour ratio of upload
	// operations over the averaged day (paper: ~10x on uploaded volume; at
	// simulation scale operation counts give the stable estimate, since one
	// huge file can dominate an hour's bytes).
	DayNightRatio float64
	// Size categories of Fig. 2b, bounds in MB: {0.5, 1, 5, 25}.
	UpBuckets, DownBuckets *stats.Buckets
}

// AnalyzeTraffic computes Fig. 2a/2b.
func AnalyzeTraffic(t *Trace) Traffic {
	const gb = 1e9
	res := Traffic{
		Up:          stats.NewTimeSeries(t.Start, time.Hour, t.Hours()),
		Down:        stats.NewTimeSeries(t.Start, time.Hour, t.Hours()),
		UpBuckets:   stats.NewBuckets(0.5, 1, 5, 25),
		DownBuckets: stats.NewBuckets(0.5, 1, 5, 25),
	}
	const mb = 1 << 20
	upOps := stats.NewTimeSeries(t.Start, time.Hour, t.Hours())
	for i := range t.Records {
		r := &t.Records[i]
		switch {
		case isUpload(r):
			res.Up.Add(r.When(), float64(r.Size)/gb)
			res.UpBuckets.Add(float64(r.Size)/mb, float64(r.Size))
			upOps.Add(r.When(), 1)
		case isDownload(r):
			res.Down.Add(r.When(), float64(r.Size)/gb)
			res.DownBuckets.Add(float64(r.Size)/mb, float64(r.Size))
		}
	}
	res.DayNightRatio = dayNight(upOps)
	return res
}

// dayNight is the ratio of a series' busiest to its quietest non-empty hour
// of the averaged day (0 when every hour is empty).
func dayNight(ts *stats.TimeSeries) float64 {
	var peak, trough float64 = 0, -1
	for _, v := range ts.HourOfDay() {
		if v > peak {
			peak = v
		}
		if v > 0 && (trough < 0 || v < trough) {
			trough = v
		}
	}
	if trough <= 0 {
		return 0
	}
	return peak / trough
}

// Render produces the Fig. 2a chart and Fig. 2b table.
func (tr Traffic) Render() string {
	var b strings.Builder
	b.WriteString(plot.MultiLine("Fig 2a: transferred traffic (GB/hour)", map[string][]float64{
		"upload":   tr.Up.Vals,
		"download": tr.Down.Vals,
	}, 96, 12))
	b.WriteString("\n")

	b.WriteString("Fig 2b: traffic vs file size category\n")
	b.WriteString("  category        up-ops   up-data  down-ops down-data\n")
	upOps, upData := tr.UpBuckets.CountFractions(), tr.UpBuckets.WeightFractions()
	dnOps, dnData := tr.DownBuckets.CountFractions(), tr.DownBuckets.WeightFractions()
	for i := range upOps {
		fmt.Fprintf(&b, "  %-14s %7.1f%% %8.1f%% %8.1f%% %8.1f%%\n",
			tr.UpBuckets.Label(i, "MB"), 100*upOps[i], 100*upData[i], 100*dnOps[i], 100*dnData[i])
	}
	return b.String()
}

// RWRatio reproduces Fig. 2c: the hourly read/write byte ratio, its
// variability, and its autocorrelation structure.
type RWRatio struct {
	Hourly *stats.TimeSeries
	Box    stats.BoxPlot
	ACF    []float64
	Conf   float64 // ±2/√N confidence band
	// Exceedances counts lags outside the band; "most lags outside"
	// indicates the long-term correlation the paper reports.
	Exceedances int
	// MorningTrend is the linear slope of the averaged R/W ratio from 6am
	// to 3pm (paper: linear decay, i.e. negative slope).
	MorningTrend float64
}

// AnalyzeRWRatio computes Fig. 2c with 1-hour bins.
func AnalyzeRWRatio(t *Trace) RWRatio {
	up := stats.NewTimeSeries(t.Start, time.Hour, t.Hours())
	down := stats.NewTimeSeries(t.Start, time.Hour, t.Hours())
	for i := range t.Records {
		r := &t.Records[i]
		switch {
		case isUpload(r):
			up.Add(r.When(), float64(r.Size))
		case isDownload(r):
			down.Add(r.When(), float64(r.Size))
		}
	}
	// Exclude hours with negligible upload volume before forming ratios: at
	// simulation scale a near-empty night hour would otherwise produce
	// enormous R/W outliers that the 1.29M-user original never shows.
	floor := 0.02 * stats.Mean(up.NonZero())
	ratio := stats.NewTimeSeries(up.Start, up.Bin, len(up.Vals))
	for i := range up.Vals {
		if up.Vals[i] > floor && down.Vals[i] > 0 {
			ratio.Vals[i] = down.Vals[i] / up.Vals[i]
		}
	}
	vals := ratio.NonZero()
	res := RWRatio{
		Hourly: ratio,
		Box:    stats.NewBoxPlot(vals),
		Conf:   stats.ACFConfidence(len(ratio.Vals)),
	}
	res.ACF = stats.ACF(ratio.Vals, min(700, len(ratio.Vals)-1))
	res.Exceedances = stats.ACFExceedances(res.ACF, res.Conf)

	// Morning trend: least-squares slope of hour-of-day means, 6..15.
	hod := ratio.HourOfDay()
	var xs, ys []float64
	for h := 6; h <= 15; h++ {
		if hod[h] > 0 {
			xs = append(xs, float64(h))
			ys = append(ys, hod[h])
		}
	}
	if len(xs) >= 2 {
		res.MorningTrend = slope(xs, ys)
	}
	return res
}

// slope returns the least-squares slope of y over x.
func slope(xs, ys []float64) float64 {
	mx, my := stats.Mean(xs), stats.Mean(ys)
	var num, den float64
	for i := range xs {
		num += (xs[i] - mx) * (ys[i] - my)
		den += (xs[i] - mx) * (xs[i] - mx)
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// Render produces the Fig. 2c block.
func (rw RWRatio) Render() string {
	var b strings.Builder
	b.WriteString("Fig 2c: R/W ratio (1-hour bins)\n")
	fmt.Fprintf(&b, "  %s\n", rw.Box)
	fmt.Fprintf(&b, "  ACF: %d/%d lags outside ±%.4f\n", rw.Exceedances, len(rw.ACF), rw.Conf)
	b.WriteString(plot.Line("  hourly R/W ratio", rw.Hourly.Vals, 96, 8))
	return b.String()
}
