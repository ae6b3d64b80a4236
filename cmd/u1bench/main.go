// Command u1bench runs the full experiment suite: it generates the default
// 30-day trace, runs every analysis, and prints a paper-vs-measured report,
// then the per-op latency table read live from the cluster's metrics
// registry. Performance is measured by benchmark/, not here.
//
// Usage:
//
//	u1bench [-users 2000] [-days 30] [-seed 1] [-workers 0]
//	        [-fault-rate 0] [-admit-watermark 0]
//	        [-durability DIR] [-fsync per-op|group|async] [-snapshot-every 0]
//	        [-regions 0] [-repl-delay 0] [-eventual]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"u1/internal/analysis"
	"u1/internal/client"
	"u1/internal/faults"
	"u1/internal/metrics"
	"u1/internal/server"
	"u1/internal/trace"
	"u1/internal/wal"
	"u1/internal/workload"
)

func main() {
	users := flag.Int("users", 2000, "population size (paper: 1.29M)")
	days := flag.Int("days", 30, "trace window in days (paper: 30)")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", 0, "parallel generator shards (0 = GOMAXPROCS, 1 = serial stream)")
	faultRate := flag.Float64("fault-rate", 0, "deterministic per-op injected failure fraction (0 disables)")
	admitWatermark := flag.Int("admit-watermark", 0, "per-proc admitted-requests-per-minute watermark for load shedding (0 disables)")
	durability := flag.String("durability", "", "directory for the metadata store's per-shard WAL + snapshots (empty = in-memory)")
	fsync := flag.String("fsync", "per-op", "journal fsync policy: per-op, group, or async")
	snapshotEvery := flag.Int("snapshot-every", 0, "journal records between per-shard snapshots (0 = metadata default)")
	regions := flag.Int("regions", 0, "metadata regions with asynchronous cross-region replication (<= 1 disables)")
	replDelay := flag.Int("repl-delay", 0, "cross-region replication delay in epochs")
	eventual := flag.Bool("eventual", false, "serve cross-region reads from the local replica instead of the owner shard")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memprofile := flag.String("memprofile", "", "write a post-GC heap profile to this file at exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
			f.Close() //nolint:errcheck
		}()
	}

	policy, err := wal.ParsePolicy(*fsync)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	start := time.Now()
	cluster, err := server.OpenCluster(server.Config{
		Seed: *seed, AuthFailureRate: 0.0276,
		FaultPlan:      faults.Uniform(*seed, *faultRate),
		AdmitWatermark: *admitWatermark,
		Durability:     *durability,
		FsyncPolicy:    policy,
		SnapshotEvery:  *snapshotEvery,

		Regions:          *regions,
		ReplicationDelay: *replDelay,
		EventualReads:    *eventual,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	col := trace.NewCollector(trace.Config{
		Start: workload.PaperStart, Days: *days,
		Shards: cluster.Store.NumShards(), Seed: *seed,
	})
	cluster.AddAPIObserver(col.APIObserver())
	cluster.AddRPCObserver(col.RPCObserver())
	// Stamp generation time around Run only, so the live table's ops/s is
	// the back-end's rate, not the analyses'.
	wcfg := workload.Config{Users: *users, Days: *days, Seed: *seed, Workers: *workers}
	if *faultRate > 0 || *admitWatermark > 0 {
		// Failures are only interesting if clients react to them: give the
		// population the bounded virtual-time retry policy.
		wcfg.Retry = client.Retry{Max: 2, Backoff: 2 * time.Second}
	}
	genStart := time.Now()
	workload.New(wcfg, cluster).Run()
	genWall := time.Since(genStart)
	t := analysis.FromCollector(col, workload.PaperStart, *days)
	clean := t.Sanitize()
	fmt.Printf("== U1 reproduction: %d users, %d days, %d records (generated in %v) ==\n\n",
		*users, *days, len(t.Records), time.Since(start).Round(time.Millisecond))

	row := func(id, metric, paper, measured string) {
		fmt.Printf("%-5s %-46s %-22s %s\n", id, metric, paper, measured)
	}
	fmt.Printf("%-5s %-46s %-22s %s\n", "exp", "metric", "paper", "measured")
	fmt.Println(strings78)

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

	fmt.Println(strings78)

	// Observability section: the same numbers, but read live from the
	// metrics registry instead of the offline trace.
	snap := cluster.Metrics.Snapshot()
	ops := metrics.OpStatsOf(snap, genWall.Seconds())
	names := make([]string, 0, len(ops))
	var total uint64
	var rate float64
	for name, st := range ops {
		names = append(names, name)
		total += st.Count
		rate += st.OpsPerSec
	}
	sort.Strings(names)
	fmt.Printf("\n== live metrics (%d ops, %.0f ops/s of generation) ==\n", total, rate)
	fmt.Printf("%-14s %10s %8s %10s %10s %10s\n", "op", "count", "errors", "p50_ms", "p95_ms", "p99_ms")
	for _, name := range names {
		st := ops[name]
		fmt.Printf("%-14s %10d %8d %10.2f %10.2f %10.2f\n",
			name, st.Count, st.Errors, st.P50Ms, st.P95Ms, st.P99Ms)
	}
	c := snap.Counters
	if *faultRate > 0 || *admitWatermark > 0 {
		fmt.Printf("faults: injected %d, shed %d, retried %d (succeeded %d)\n",
			c[metrics.FaultsPrefix+"injected"], c[metrics.FaultsPrefix+"shed"],
			c[metrics.FaultsPrefix+"retried"], c[metrics.FaultsPrefix+"retry_succeeded"])
	}
	if *regions > 1 {
		fmt.Printf("replication (%d regions, delay %d): %d published, %d applied, %d LWW-skipped, reads local/remote/stale %d/%d/%d\n",
			*regions, *replDelay,
			c[metrics.ReplicationPrefix+"published"], c[metrics.ReplicationPrefix+"applied"],
			c[metrics.ReplicationPrefix+"lww_skipped"], c[metrics.ReplicationPrefix+"reads.local"],
			c[metrics.ReplicationPrefix+"reads.remote"], c[metrics.ReplicationPrefix+"reads.stale"])
	}
	if *durability != "" {
		if err := cluster.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		c = cluster.Metrics.Snapshot().Counters
		fmt.Printf("journaled run (%s): %d journaled ops, %d WAL appends, %d snapshots\n",
			policy, c[metrics.WALPrefix+"journaled"], c[metrics.WALPrefix+"appends"],
			c[metrics.WALPrefix+"snapshots"])
	}
	fmt.Printf("total runtime %v\n", time.Since(start).Round(time.Millisecond))
}

const strings78 = "------------------------------------------------------------------------------"
