package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"u1/internal/apiserver"
	"u1/internal/metrics"
	"u1/internal/server"
	"u1/internal/trace"
	"u1/internal/workload"
)

// simulation is one generator run on a freshly opened cluster; sim and
// analyze both build theirs with newSimulation.
type simulation struct {
	cluster *server.Cluster
	gen     *workload.Generator
	col     *trace.Collector // nil for a generator-only run
	start   time.Time        // before the cluster opened
	wall    time.Duration    // Generator.Run alone
	totals  workload.Totals
}

// newSimulation opens the cluster the flags describe and builds the
// population on it, with a trace collector when collect is set.
func newSimulation(c *clusterFlags, p *populationFlags, collect, keepRPC bool) (*simulation, error) {
	scfg, wcfg, err := p.configs(c)
	if err != nil {
		return nil, err
	}
	// Session ids feed process placement, and so the logfile a record lands
	// in: rewinding the process-global allocator lets a run repeat exactly
	// when it is not the process's first.
	apiserver.ResetSessionIDs()
	s := &simulation{start: time.Now()}
	if s.cluster, err = server.OpenCluster(scfg); err != nil {
		return nil, err
	}
	if collect {
		s.col = trace.NewCollector(trace.Config{
			Start: workload.PaperStart, Days: p.days, Shards: s.cluster.Store.NumShards(),
			Seed: c.seed, KeepRPCRecords: keepRPC,
		})
		s.cluster.AddAPIObserver(s.col.APIObserver())
		s.cluster.AddRPCObserver(s.col.RPCObserver())
	}
	s.gen = workload.New(wcfg, s.cluster)
	return s, nil
}

func (s *simulation) run() {
	t0 := time.Now()
	s.totals = s.gen.Run()
	s.wall = time.Since(t0)
}

// runSim is `u1 sim`. -out streams the logfiles at every epoch barrier,
// -report keeps the records for the paper table, and with neither the run
// is generator-only: the scale campaign.
func runSim(args []string, stdout io.Writer) error {
	fs := newFlagSet("sim")
	cf, pf := addClusterFlags(fs), addPopulationFlags(fs)
	out := fs.String("out", "", "stream the trace's logfiles into this directory at every epoch barrier")
	keepRPC := fs.Bool("rpc", false, "also keep rpc span records (large)")
	report := fs.Bool("report", false, "keep the records and print the paper-vs-measured table and the live per-op table")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile of the steady state to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *report && *out != "" {
		return errors.New("-report needs the records -out streams away: write the trace with -out, then run `u1 analyze -trace DIR`")
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close() //nolint:errcheck
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	s, err := newSimulation(cf, pf, *out != "" || *report, *keepRPC)
	if err != nil {
		return err
	}
	var streamErr error
	if *out != "" {
		if err := s.col.StartStream(*out); err != nil {
			return err
		}
		s.gen.Engine().AtEpochEnd(func(time.Time) {
			if streamErr == nil {
				streamErr = s.col.Flush()
			}
		})
	}
	s.run()

	// The steady state: everything still reachable after the run is what the
	// population, the cluster and any kept records hold — the quantity that
	// caps one machine's population.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		if err := errors.Join(pprof.WriteHeapProfile(f), f.Close()); err != nil {
			return err
		}
	}

	if *report {
		printReport(stdout, s, pf.users, pf.days)
	}
	eng := s.gen.Engine()
	fmt.Fprintf(stdout, "events: %d in %v (%.0f events/s on %d shards)\n", eng.Executed(),
		s.wall.Round(time.Millisecond), float64(eng.Executed())/s.wall.Seconds(), eng.NumShards())
	fmt.Fprintf(stdout, "totals: %d sessions, %d uploads, %d downloads, %d deletes, %d attack sessions\n",
		s.totals.Sessions, s.totals.Uploads, s.totals.Downloads, s.totals.Deletes, s.totals.AttackSessions)
	if *out != "" {
		records := s.col.Len()
		if err := errors.Join(streamErr, s.col.CloseStream()); err != nil {
			return fmt.Errorf("streaming trace: %w", err)
		}
		entries, err := os.ReadDir(*out)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %d records in %d logfiles to %s\n", records, len(entries), *out)
	}
	if err := s.counters(stdout, cf); err != nil {
		return err
	}
	// Peak RSS is the process's high-water resident set; Linux reports
	// Maxrss in KiB.
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "steady state: %.1f MB heap, %.1f bytes/user, peak RSS %.1f MB\n",
		float64(ms.HeapAlloc)/1e6, float64(ms.HeapAlloc)/float64(pf.users), float64(ru.Maxrss)*1024/1e6)
	return nil
}

// counters prints the closing counters block: faults when requests can
// fail, replication once every published record is applied, and durability
// once Close has snapshotted the store and closed its journals.
func (s *simulation) counters(w io.Writer, c *clusterFlags) error {
	cnt := s.cluster.Metrics.Snapshot().Counters
	if c.faulted() {
		fmt.Fprintf(w, "faults: injected %d, shed %d, retried %d (succeeded %d)\n",
			cnt[metrics.FaultsPrefix+"injected"], cnt[metrics.FaultsPrefix+"shed"],
			cnt[metrics.FaultsPrefix+"retried"], cnt[metrics.FaultsPrefix+"retry_succeeded"])
	}
	if c.regions > 1 {
		s.cluster.Store.DrainReplication()
		cnt = s.cluster.Metrics.Snapshot().Counters
		fmt.Fprintf(w, "replication (%d regions, delay %d): %d published, %d applied, %d LWW-skipped, reads local/remote/stale %d/%d/%d\n",
			c.regions, c.replDelay,
			cnt[metrics.ReplicationPrefix+"published"], cnt[metrics.ReplicationPrefix+"applied"],
			cnt[metrics.ReplicationPrefix+"lww_skipped"], cnt[metrics.ReplicationPrefix+"reads.local"],
			cnt[metrics.ReplicationPrefix+"reads.remote"], cnt[metrics.ReplicationPrefix+"reads.stale"])
	}
	if err := s.cluster.Close(); err != nil {
		return fmt.Errorf("closing cluster: %w", err)
	}
	if c.durability != "" {
		cnt = s.cluster.Metrics.Snapshot().Counters
		fmt.Fprintf(w, "durability (%s): %d journaled ops, %d WAL appends, %d snapshots\n",
			c.fsync, cnt[metrics.WALPrefix+"journaled"], cnt[metrics.WALPrefix+"appends"],
			cnt[metrics.WALPrefix+"snapshots"])
	}
	return nil
}
