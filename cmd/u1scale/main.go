// Command u1scale runs the million-user scale campaign: a generator-only
// run (no trace collector — the point is the back-end and the population,
// not the logfiles) at populations far past the default simulation scale.
// It prints sustained event throughput, steady-state resident bytes per
// user and peak process RSS, then exits. benchmark/'s sim-scale-day workload
// is the measured, gated 25k-user leg of the same configuration.
//
// The campaign configuration deliberately trades golden-comparability for
// footprint: -compact turns on workload.Config.LowMem (8-byte per-user RNG
// states, clients released on disconnect) and -deltalog -1 disables the
// per-volume delta logs entirely — volumes carry no delta history and every
// delta read from a stale generation falls back to a full rescan (correct,
// just slower for delta readers). Both knobs change the generated stream or
// server behaviour relative to the golden configuration, so the run prints
// them.
//
// Usage:
//
//	u1scale -users 1000000 -days 1 [-workers 0] [-seed 7]
//	        [-compact=true] [-deltalog -1] [-adapt-epoch]
//	        [-cpuprofile FILE] [-memprofile FILE]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"u1/internal/server"
	"u1/internal/sim"
	"u1/internal/workload"
)

func main() {
	users := flag.Int("users", 1_000_000, "population size (the paper served 1.29M)")
	days := flag.Int("days", 1, "campaign window in days")
	seed := flag.Int64("seed", 7, "random seed")
	workers := flag.Int("workers", 0, "parallel generator shards (0 = GOMAXPROCS)")
	compact := flag.Bool("compact", true, "run the generator in low-memory mode (workload.Config.LowMem)")
	deltalog := flag.Int("deltalog", -1, "per-volume delta-log cap (0 = metadata default, negative disables the logs)")
	adaptEpoch := flag.Bool("adapt-epoch", false, "let the engine resize epochs to event density (deterministic, but a different trajectory than the pinned default)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the generation run to this file")
	memprofile := flag.String("memprofile", "", "write a post-GC heap profile to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	cluster := server.NewCluster(server.Config{Seed: *seed, DeltaLogLimit: *deltalog})
	wcfg := workload.Config{
		Users: *users, Days: *days, Seed: *seed,
		Workers: *workers, LowMem: *compact,
	}
	if *adaptEpoch {
		wcfg.EpochAdapt = &sim.EpochAdaptation{LowEvents: 1 << 10, HighEvents: 1 << 18}
	}
	g := workload.New(wcfg, cluster)

	start := time.Now()
	totals := g.Run()
	wall := time.Since(start)
	events := g.Engine().Executed()

	// Steady-state footprint: everything still reachable after the run is
	// the population's resident state (users, volumes, nodes, content, blob
	// index) — the quantity that caps the single-machine population. The
	// KeepAlive below stops the GC from collecting the cluster and
	// generator before the measurement (their last syntactic use is above).
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close() //nolint:errcheck
	}
	runtime.KeepAlive(cluster)
	runtime.KeepAlive(g)

	fmt.Printf("scale campaign: %d users x %d days, %d workers (compact=%v, deltalog=%d)\n",
		*users, *days, g.Engine().NumShards(), *compact, *deltalog)
	fmt.Printf("events: %d in %v (%.0f events/s); sessions %d, uploads %d, downloads %d\n",
		events, wall.Round(time.Millisecond), float64(events)/wall.Seconds(),
		totals.Sessions, totals.Uploads, totals.Downloads)
	fmt.Printf("steady state: %.1f MB heap, %.1f bytes/user, peak RSS %.1f MB\n",
		float64(ms.HeapAlloc)/1e6, float64(ms.HeapAlloc)/float64(*users), float64(peakRSS())/1e6)
}

// peakRSS reads the process's high-water resident set (VmHWM) from
// /proc/self/status; 0 on platforms without procfs.
func peakRSS() uint64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close() //nolint:errcheck
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
