package report

import (
	"fmt"
	"io"
	"slices"

	"u1/benchmark/spec"
)

// Verdicts of one workload x metric row.
const (
	Better      = "better"
	WithinBound = "within bound"
	Worse       = "worse"
	Unresolved  = "unresolved"
)

// Row is one workload x metric comparison of report B against base A.
type Row struct {
	Workload string
	Metric   string
	A, B     Summary
	// Ratio is B's median over A's: the base of every ratio is A.
	Ratio   float64
	Bound   float64
	Verdict string
}

// worseBy returns by how much of a's median b's is worse (negative: better).
func worseBy(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == spec.Higher {
		return (a - b) / a
	}
	return (b - a) / a
}

// Verdict judges b against base a under the metric's bound. A difference is
// resolved only when the run-to-run spread of both sides is within the bound
// — or when every run of one side beats every run of the other.
func Verdict(m spec.Metric, a, b Summary) string {
	d := worseBy(m.Better, a.Median, b.Median)
	if a.Spread() > m.Bound || b.Spread() > m.Bound {
		separated := b.Min > a.Max || b.Max < a.Min
		if !separated || a.N < 2 || b.N < 2 {
			return Unresolved
		}
	}
	switch {
	case d > m.Bound:
		return Worse
	case d < -m.Bound:
		return Better
	default:
		return WithinBound
	}
}

// Compare builds one row per workload x end-to-end metric present in both
// reports, and the warnings a reader needs before trusting the rows.
func Compare(a, b *Report) (rows []Row, warnings []string) {
	byName := make(map[string]Workload)
	for _, w := range a.Workloads {
		byName[w.Name] = w
	}
	for _, wb := range b.Workloads {
		wa, ok := byName[wb.Name]
		if !ok {
			warnings = append(warnings, fmt.Sprintf("%s: only in B", wb.Name))
			continue
		}
		if wa.Sizes != wb.Sizes {
			warnings = append(warnings, fmt.Sprintf("%s: sizes differ (%+v vs %+v): not the same workload", wb.Name, wa.Sizes, wb.Sizes))
		}
		if !slices.Equal(wa.Fingerprints, wb.Fingerprints) {
			warnings = append(warnings, fmt.Sprintf("%s: stream_fingerprint differs (%v vs %v): the rates are over different work",
				wb.Name, wa.Fingerprints, wb.Fingerprints))
		}
		if !wa.Correct || !wb.Correct {
			warnings = append(warnings, fmt.Sprintf("%s: a correctness check failed (A correct=%v, B correct=%v)", wb.Name, wa.Correct, wb.Correct))
		}
		if wb.Failed > wa.Failed {
			warnings = append(warnings, fmt.Sprintf("%s: more operations failed in B (%d) than in A (%d): a gain does not count", wb.Name, wb.Failed, wa.Failed))
		}
		for _, m := range spec.EndToEnd {
			sa, oka := wa.Metrics[m.Name]
			sb, okb := wb.Metrics[m.Name]
			if !oka || !okb {
				continue
			}
			row := Row{Workload: wb.Name, Metric: m.Name, A: sa, B: sb, Bound: m.Bound, Verdict: Verdict(m, sa, sb)}
			if sa.Median != 0 {
				row.Ratio = sb.Median / sa.Median
			}
			rows = append(rows, row)
		}
	}
	if a.Env.Seed != b.Env.Seed || a.Env.Reps != b.Env.Reps {
		warnings = append(warnings, fmt.Sprintf("seed lists differ (A seed %d x %d reps, B seed %d x %d reps): the medians are over different work",
			a.Env.Seed, a.Env.Reps, b.Env.Seed, b.Env.Reps))
	}
	if a.Env.CPUModel != b.Env.CPUModel || a.Env.GOMAXPROCS != b.Env.GOMAXPROCS || a.Env.GoVersion != b.Env.GoVersion {
		warnings = append(warnings, fmt.Sprintf("hosts differ: A %s %q GOMAXPROCS=%d, B %s %q GOMAXPROCS=%d",
			a.Env.GoVersion, a.Env.CPUModel, a.Env.GOMAXPROCS, b.Env.GoVersion, b.Env.CPUModel, b.Env.GOMAXPROCS))
	}
	return rows, warnings
}

// PrintRows writes the comparison table: both medians with their quartiles,
// the ratio B/A, the bound and the verdict, one workload x metric per row.
func PrintRows(w io.Writer, rows []Row, warnings []string) {
	fmt.Fprintf(w, "%-14s %-20s %12s %-25s %12s %-25s %8s %6s  %s\n",
		"workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "B/A", "bound", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-20s %12.6g %-25s %12.6g %-25s %8.4f %5.0f%%  %s\n",
			r.Workload, r.Metric, r.A.Median, fmt.Sprintf("[%.6g, %.6g]", r.A.Q1, r.A.Q3),
			r.B.Median, fmt.Sprintf("[%.6g, %.6g]", r.B.Q1, r.B.Q3), r.Ratio, 100*r.Bound, r.Verdict)
	}
	for _, warn := range warnings {
		fmt.Fprintf(w, "WARNING: %s\n", warn)
	}
}
