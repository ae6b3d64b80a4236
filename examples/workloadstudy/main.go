// Workloadstudy: generate a small synthetic month of U1 activity and run
// the paper's §5–§7 analyses over it — the whole measurement pipeline in one
// program. For the full-scale run use cmd/u1bench.
package main

import (
	"fmt"
	"log"
	"time"

	"u1/internal/analysis"
	"u1/internal/server"
	"u1/internal/trace"
	"u1/internal/workload"
)

func main() {
	log.SetFlags(0)
	const users, days = 500, 7

	cluster := server.NewCluster(server.Config{Seed: 3, AuthFailureRate: 0.0276})
	col := trace.NewCollector(trace.Config{
		Start: workload.PaperStart, Days: days,
		Shards: cluster.Store.NumShards(), Seed: 3,
	})
	cluster.AddAPIObserver(col.APIObserver())
	cluster.AddRPCObserver(col.RPCObserver())

	start := time.Now()
	totals := workload.New(workload.Config{
		Users: users, Days: days, Seed: 3,
		Attacks: []workload.Attack{}, // a clean week; `u1chaos -scenarios flash-crowd` runs the storm
	}, cluster).Run()
	fmt.Printf("simulated %d users for %d days in %v: %d sessions, %d uploads, %d downloads\n\n",
		users, days, time.Since(start).Round(time.Millisecond),
		totals.Sessions, totals.Uploads, totals.Downloads)

	t := analysis.FromCollector(col, workload.PaperStart, days)
	clean := t.Sanitize()

	fmt.Println(analysis.AnalyzeSummary(clean).Render())
	fmt.Println(analysis.AnalyzeTraffic(t).Render())
	fmt.Println(analysis.AnalyzeDedup(clean).Render())
	fmt.Println(analysis.AnalyzeUserTraffic(clean).Render())
	fmt.Println(analysis.AnalyzeBurstiness(clean).Render())
	fmt.Println(analysis.AnalyzeRPCPerf(t).Render())
	fmt.Println(analysis.AnalyzeFindings(clean).Render())
}
