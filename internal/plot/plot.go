// Package plot renders the study's figures as terminal text: line charts for
// time series, CDF curves, horizontal bar charts and scatter tables. The Go
// ecosystem has no canonical plotting stack, so figures are reproduced as
// ASCII.
package plot

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"u1/internal/stats"
)

// Line renders a single series as an ASCII line chart of the given width and
// height, with min/max annotations.
func Line(title string, ys []float64, width, height int) string {
	if len(ys) == 0 || width < 8 || height < 2 {
		return title + ": (no data)\n"
	}
	// Downsample/bucket the series to the target width by averaging.
	cols := bucketMeans(ys, width)
	lo, hi := stats.MinMax(cols)
	if hi == lo {
		hi = lo + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", len(cols)))
	}
	for x, v := range cols {
		y := int(float64(height-1) * (v - lo) / (hi - lo))
		row := height - 1 - y
		grid[row][x] = '*'
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  [max %.4g]\n", title, hi)
	for _, row := range grid {
		b.WriteString("  |")
		b.Write(row)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "  +%s  [min %.4g]\n", strings.Repeat("-", len(cols)), lo)
	return b.String()
}

// MultiLine renders several series on one chart with one rune per series.
func MultiLine(title string, series map[string][]float64, width, height int) string {
	if len(series) == 0 || width < 8 || height < 2 {
		return title + ": (no data)\n"
	}
	marks := []byte("*o+x#@")
	var names []string
	for name := range series {
		names = append(names, name)
	}
	// Deterministic legend order.
	sort.Strings(names)
	var lo, hi = math.Inf(1), math.Inf(-1)
	cols := make(map[string][]float64, len(series))
	for _, name := range names {
		c := bucketMeans(series[name], width)
		cols[name] = c
		l, h := stats.MinMax(c)
		lo, hi = math.Min(lo, l), math.Max(hi, h)
	}
	if hi == lo {
		hi = lo + 1
	}
	n := 0
	for _, c := range cols {
		if len(c) > n {
			n = len(c)
		}
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", n))
	}
	for si, name := range names {
		mark := marks[si%len(marks)]
		for x, v := range cols[name] {
			y := int(float64(height-1) * (v - lo) / (hi - lo))
			grid[height-1-y][x] = mark
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  [max %.4g]\n", title, hi)
	for _, row := range grid {
		b.WriteString("  |")
		b.Write(row)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "  +%s  [min %.4g]\n", strings.Repeat("-", n), lo)
	for si, name := range names {
		fmt.Fprintf(&b, "   %c = %s\n", marks[si%len(marks)], name)
	}
	return b.String()
}

// CDF renders one or more CDF curves sampled at log-spaced x values, as the
// paper's log-x CDF figures.
func CDF(title string, curves map[string]*stats.CDF, width int) string {
	var names []string
	for name := range curves {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(title + "\n")
	for _, name := range names {
		c := curves[name]
		if c.N() == 0 {
			fmt.Fprintf(&b, "  %-14s (no data)\n", name)
			continue
		}
		qs := []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.97, 0.999}
		var cells []string
		for _, q := range qs {
			cells = append(cells, fmt.Sprintf("p%02.0f=%s", q*100, SI(c.Quantile(q))))
		}
		fmt.Fprintf(&b, "  %-14s n=%-8d %s\n", name, c.N(), strings.Join(cells, " "))
	}
	return b.String()
}

// Bars renders a horizontal bar chart of labeled values.
func Bars(title string, labels []string, values []float64, width int) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	if len(labels) != len(values) || len(labels) == 0 {
		b.WriteString("  (no data)\n")
		return b.String()
	}
	_, max := stats.MinMax(values)
	if max <= 0 {
		max = 1
	}
	if width < 10 {
		width = 10
	}
	for i, label := range labels {
		n := int(float64(width) * values[i] / max)
		if n < 0 {
			n = 0
		}
		fmt.Fprintf(&b, "  %-16s %-*s %s\n", label, width, strings.Repeat("#", n), SI(values[i]))
	}
	return b.String()
}

// SI formats a value with an SI suffix (the analysis deals in bytes and
// counts spanning 12 orders of magnitude).
func SI(v float64) string {
	av := math.Abs(v)
	switch {
	case av >= 1e12:
		return fmt.Sprintf("%.2fT", v/1e12)
	case av >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case av >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case av >= 1e3:
		return fmt.Sprintf("%.2fk", v/1e3)
	case av >= 1 || av == 0:
		return fmt.Sprintf("%.3g", v)
	case av >= 1e-3:
		return fmt.Sprintf("%.3gm", v*1e3)
	case av >= 1e-6:
		return fmt.Sprintf("%.3gu", v*1e6)
	default:
		return fmt.Sprintf("%.3gn", v*1e9)
	}
}

// bucketMeans shrinks a series to at most width points by averaging
// consecutive buckets.
func bucketMeans(ys []float64, width int) []float64 {
	if len(ys) <= width {
		return append([]float64(nil), ys...)
	}
	out := make([]float64, width)
	per := float64(len(ys)) / float64(width)
	for i := 0; i < width; i++ {
		lo := int(float64(i) * per)
		hi := int(float64(i+1) * per)
		if hi > len(ys) {
			hi = len(ys)
		}
		if hi <= lo {
			hi = lo + 1
		}
		out[i] = stats.Mean(ys[lo:hi])
	}
	return out
}
