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

// printReport is `u1 sim -report`: every analysis of the run's records
// against the paper's number, then the per-op latency table read live from
// the cluster's metrics registry.
func printReport(w io.Writer, s *simulation, users, days int) {
	t := analysis.FromCollector(s.col, workload.PaperStart, days)
	clean := t.Sanitize()
	fmt.Fprintf(w, "== U1 reproduction: %d users, %d days, %d records (generated in %v) ==\n\n",
		users, days, len(t.Records), time.Since(s.start).Round(time.Millisecond))

	row := func(id, metric, paper, measured string) {
		fmt.Fprintf(w, "%-5s %-46s %-22s %s\n", id, metric, paper, measured)
	}
	fmt.Fprintf(w, "%-5s %-46s %-22s %s\n", "exp", "metric", "paper", "measured")
	fmt.Fprintln(w, strings78)

	sum := analysis.AnalyzeSummary(clean)
	row("T3", "unique users", "1,294,794", fmt.Sprint(sum.UniqueUsers))
	row("T3", "sessions", "42.5M", fmt.Sprint(sum.Sessions))
	row("T3", "transfer operations", "194.3M", fmt.Sprint(sum.Transfers))
	row("T3", "upload traffic", "105 TB", fmt.Sprintf("%.1f GB", float64(sum.UploadBytes)/1e9))
	row("T3", "download traffic", "120 TB", fmt.Sprintf("%.1f GB", float64(sum.DownloadBytes)/1e9))
	row("§5.1", "updates: % of upload ops", "10.05%", fmt.Sprintf("%.2f%%", 100*sum.UpdateOpFraction()))
	row("§5.1", "updates: % of upload bytes", "18.47%", fmt.Sprintf("%.2f%%", 100*sum.UpdateByteFraction()))

	tf := analysis.AnalyzeTraffic(t)
	upOps, upData := tf.UpBuckets.CountFractions(), tf.UpBuckets.WeightFractions()
	dnOps, dnData := tf.DownBuckets.CountFractions(), tf.DownBuckets.WeightFractions()
	row("F2a", "upload day/night amplitude", "~10x", fmt.Sprintf("%.1fx", tf.DayNightRatio))
	row("F2b", ">25MB files: % of upload bytes", "79.3%", fmt.Sprintf("%.1f%%", 100*upData[4]))
	row("F2b", ">25MB files: % of download bytes", "88.2%", fmt.Sprintf("%.1f%%", 100*dnData[4]))
	row("F2b", "<0.5MB files: % of upload ops", "84.3%", fmt.Sprintf("%.1f%%", 100*upOps[0]))
	row("F2b", "<0.5MB files: % of download ops", "89.0%", fmt.Sprintf("%.1f%%", 100*dnOps[0]))

	rw := analysis.AnalyzeRWRatio(t)
	row("F2c", "R/W ratio median", "1.14", fmt.Sprintf("%.2f", rw.Box.Median))
	row("F2c", "R/W ACF lags outside 95% band", "most", fmt.Sprintf("%d/%d", rw.Exceedances, len(rw.ACF)))
	row("F2c", "R/W 6am-3pm trend", "linear decay", fmt.Sprintf("slope %.3f/h", rw.MorningTrend))

	dep := analysis.AnalyzeDependencies(clean)
	row("F3a", "WAW/RAW/DAW shares", "44/30/26%", fmt.Sprintf("%.0f/%.0f/%.0f%%", 100*dep.WAWFrac, 100*dep.RAWFrac, 100*dep.DAWFrac))
	row("F3a", "WAW gaps under 1 hour", "80%", fmt.Sprintf("%.0f%%", 100*dep.WAWUnderHour))
	row("F3b", "RAR/DAR/WAR shares", "66/24/10%", fmt.Sprintf("%.0f/%.0f/%.0f%%", 100*dep.RARFrac, 100*dep.DARFrac, 100*dep.WARFrac))
	row("F3b", "dying files (idle >1d before delete)", "9.1%", fmt.Sprintf("%.1f%%", 100*dep.DyingFileShare))

	lt := analysis.AnalyzeLifetime(clean)
	row("F3c", "files deleted within the month", "28.9%", fmt.Sprintf("%.1f%%", 100*lt.FileDeadFrac))
	row("F3c", "dirs deleted within the month", "31.5%", fmt.Sprintf("%.1f%%", 100*lt.DirDeadFrac))
	row("F3c", "files deleted within 8 hours", "17.1%", fmt.Sprintf("%.1f%%", 100*lt.FileDead8hFrac))

	dd := analysis.AnalyzeDedup(clean)
	row("F4a", "deduplication ratio", "0.171", fmt.Sprintf("%.3f", dd.Ratio))
	row("F4a", "contents with a single reference", "~80%", fmt.Sprintf("%.0f%%", 100*dd.SingletonShare))

	sz := analysis.AnalyzeSizes(clean)
	row("F4b", "files smaller than 1 MB", "90%", fmt.Sprintf("%.0f%%", 100*sz.Sub1MBShare))

	ty := analysis.AnalyzeTypes(clean)
	codeF, avB := 0.0, 0.0
	for i, cat := range ty.Categories {
		if cat == "Code" {
			codeF = ty.FileShare[i]
		}
		if cat == "Audio/Video" {
			avB = ty.ByteShare[i]
		}
	}
	row("F4c", "Code: share of files (most numerous)", "~27%", fmt.Sprintf("%.0f%%", 100*codeF))
	row("F4c", "A/V: share of bytes (largest)", "~25%", fmt.Sprintf("%.0f%%", 100*avB))

	at := analysis.AnalyzeDDoS(t)
	row("F5", "attacks detected", "3", fmt.Sprint(len(at.Attacks)))
	for _, a := range at.Attacks {
		row("F5", fmt.Sprintf("  day %d attack: auth / API multiplier", a.Day),
			"5-15x / 4.6-245x", fmt.Sprintf("%.0fx / %.0fx", a.Multiplier, a.APIMultiplier))
	}

	oa := analysis.AnalyzeOnlineActive(clean)
	row("F6", "active share of online users", "3.5-16.3%", fmt.Sprintf("%.1f-%.1f%%", 100*oa.MinActiveShare, 100*oa.MaxActiveShare))

	ut := analysis.AnalyzeUserTraffic(clean)
	row("F7b", "users who downloaded anything", "14%", fmt.Sprintf("%.1f%%", 100*ut.DownloadedShare))
	row("F7b", "users who uploaded anything", "25%", fmt.Sprintf("%.1f%%", 100*ut.UploadedShare))
	row("F7c", "Gini coefficient (upload)", "0.8943", fmt.Sprintf("%.3f", ut.GiniUp))
	row("F7c", "Gini coefficient (download)", "0.8966", fmt.Sprintf("%.3f", ut.GiniDown))
	row("F7c", "traffic from top 1% of users", "65.6%", fmt.Sprintf("%.1f%%", 100*ut.Top1Share))
	row("§6.1", "occasional users", "85.82%", fmt.Sprintf("%.1f%%", 100*ut.ClassShares["occasional"]))
	row("§6.1", "upload-only users", "7.22%", fmt.Sprintf("%.1f%%", 100*ut.ClassShares["upload-only"]))
	row("§6.1", "download-only users", "2.34%", fmt.Sprintf("%.1f%%", 100*ut.ClassShares["download-only"]))
	row("§6.1", "heavy users", "4.62%", fmt.Sprintf("%.1f%%", 100*ut.ClassShares["heavy"]))

	tr := analysis.AnalyzeTransitions(clean)
	row("F8", "P(transfer follows transfer)", "high", fmt.Sprintf("%.2f", tr.TransferSelfLoop))

	bu := analysis.AnalyzeBurstiness(clean)
	row("F9", "upload inter-op power law alpha", "1.54", fmt.Sprintf("%.2f", bu.UploadFit.Alpha))
	row("F9", "unlink inter-op power law alpha", "1.44", fmt.Sprintf("%.2f", bu.UnlinkFit.Alpha))
	row("F9", "upload inter-op CoV (Poisson=1)", ">>1", fmt.Sprintf("%.1f", bu.CoVUpload))

	vo := analysis.AnalyzeVolumes(clean)
	row("F10", "Pearson(files, dirs) per volume", "0.998", fmt.Sprintf("%.3f", vo.Pearson))
	row("F11", "users with UDFs", "58%", fmt.Sprintf("%.0f%%", 100*vo.UDFShare))
	row("F11", "users with shares", "1.8%", fmt.Sprintf("%.1f%%", 100*vo.SharedShare))

	rp := analysis.AnalyzeRPCPerf(t)
	row("F12", "RPC tail mass (far from median)", "7-22%", fmt.Sprintf("%.0f-%.0f%%", 100*rp.MinTail, 100*rp.MaxTail))
	row("F13", "cascade/read median service time", ">10x", fmt.Sprintf("%.0fx", rp.CascadeToReadRatio))

	lb := analysis.AnalyzeLoadBalance(t)
	row("F14", "shard CoV: per-minute vs whole-trace", "high vs 4.9%", fmt.Sprintf("%.2f vs %.1f%%", lb.ShardMinuteCV, 100*lb.ShardLongTermCV))

	se := analysis.AnalyzeSessions(clean)
	row("F15", "auth failures", "2.76%", fmt.Sprintf("%.2f%%", 100*se.AuthFailShare))
	row("F15", "Monday auth vs weekend", "+15%", fmt.Sprintf("%+.0f%%", 100*se.MondayBoost))
	row("F16", "sessions under 1 second", "32%", fmt.Sprintf("%.0f%%", 100*se.Sub1s))
	row("F16", "sessions under 8 hours", "97%", fmt.Sprintf("%.0f%%", 100*se.Sub8h))
	row("F16", "active sessions", "5.57%", fmt.Sprintf("%.2f%%", 100*se.ActiveShare))
	row("F16", "p80 ops per active session", "92", fmt.Sprintf("%.0f", se.P80Ops))
	row("F16", "ops carried by top 20% active sessions", "96.7%", fmt.Sprintf("%.1f%%", 100*se.Top20OpsShare))

	er := analysis.AnalyzeErrors(t)
	for _, c := range er.Classes {
		row("§5.4", fmt.Sprintf("%s-class error rate", c.Class), "clusters by op class",
			fmt.Sprintf("%.2f%% (%d/%d)", 100*c.Rate(), c.Errors, c.Ops))
	}

	wi := analysis.AnalyzeWhatIf(clean)
	row("§9", "delta updates would avoid", "~15% of upload bytes",
		fmt.Sprintf("%.1f%% (%.1f GB)", 100*float64(wi.DeltaUpdateSavings)/float64(wi.UploadBytes), float64(wi.DeltaUpdateSavings)/1e9))
	row("§9", "dedup saves of the S3 bill", "17% (~$3.4k/mo)", fmt.Sprintf("%.1f%% (~$%.0f/mo)", 100*wi.DedupMonthlyUSD/20000, wi.DedupMonthlyUSD))
	row("§7.3", "cold sessions (no data management)", "94.4%", fmt.Sprintf("%.1f%%", 100*float64(wi.ColdSessions)/float64(wi.TotalSessions)))
	row("§9", "downloads served by a 24h cache", "RAR-heavy", fmt.Sprintf("%.1f%%", 100*wi.CacheHitRate))

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
