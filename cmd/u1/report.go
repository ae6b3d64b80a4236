package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"u1/internal/analysis"
	"u1/internal/metrics"
	"u1/internal/workload"
)

// printReport is `u1 sim -report`: every target of analysis.Figures
// measured on the run's records, then the per-op latency table read live
// from the cluster's metrics registry.
func printReport(w io.Writer, s *simulation, users, days int) {
	raw := analysis.FromCollector(s.col, workload.PaperStart, days)
	clean := raw.Sanitize()
	fmt.Fprintf(w, "== U1 reproduction: %d users, %d days, %d records (generated in %v) ==\n\n",
		users, days, len(raw.Records), time.Since(s.start).Round(time.Millisecond))
	fmt.Fprint(w, analysis.Header)
	fmt.Fprintln(w, strings78)
	for i := range analysis.Figures {
		fmt.Fprint(w, analysis.Figures[i].Run(raw, clean).Rows())
	}
	fmt.Fprintln(w, strings78)

	// Observability section: the same numbers, but read live from the
	// metrics registry instead of the offline trace.
	snap := s.cluster.Metrics.Snapshot()
	ops := metrics.OpStatsOf(snap, s.wall.Seconds())
	names := make([]string, 0, len(ops))
	var total uint64
	var rate float64
	for name, st := range ops {
		names = append(names, name)
		total += st.Count
		rate += st.OpsPerSec
	}
	sort.Strings(names)
	fmt.Fprintf(w, "\n== live metrics (%d ops, %.0f ops/s of generation) ==\n", total, rate)
	fmt.Fprintf(w, "%-14s %10s %8s %10s %10s %10s\n", "op", "count", "errors", "p50_ms", "p95_ms", "p99_ms")
	for _, name := range names {
		st := ops[name]
		fmt.Fprintf(w, "%-14s %10d %8d %10.2f %10.2f %10.2f\n",
			name, st.Count, st.Errors, st.P50Ms, st.P95Ms, st.P99Ms)
	}
}

const strings78 = "------------------------------------------------------------------------------"
