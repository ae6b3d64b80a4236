package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"u1/internal/auth"
	"u1/internal/client"
	"u1/internal/faults"
	"u1/internal/metadata"
	"u1/internal/server"
	"u1/internal/wal"
	"u1/internal/workload"
)

// clusterFlags is the server.Config flag group of sim, analyze and serve.
type clusterFlags struct {
	seed                                                        int64
	faultRate                                                   float64
	admitWatermark, snapshotEvery, regions, replDelay, deltaLog int
	durability, fsync                                           string
	eventual                                                    bool
}

func addClusterFlags(fs *flag.FlagSet) *clusterFlags {
	c := &clusterFlags{}
	fs.Int64Var(&c.seed, "seed", 1, "random seed")
	fs.Float64Var(&c.faultRate, "fault-rate", 0, "deterministic per-op injected failure fraction (0 disables)")
	fs.IntVar(&c.admitWatermark, "admit-watermark", 0, "per-proc admitted-requests-per-minute watermark for load shedding (0 disables)")
	fs.StringVar(&c.durability, "durability", "", "directory for the metadata store's per-shard WAL + snapshots (empty = in-memory)")
	fs.StringVar(&c.fsync, "fsync", "per-op", "journal fsync policy: per-op, group, or async (needs -durability)")
	fs.IntVar(&c.snapshotEvery, "snapshot-every", 0, "journal records between per-shard snapshots (0 = metadata default; needs -durability)")
	fs.IntVar(&c.regions, "regions", 0, "metadata regions with asynchronous cross-region replication (<= 1 disables)")
	fs.IntVar(&c.replDelay, "repl-delay", 0, "cross-region replication delay in replication ticks: sim ticks at every 10-minute epoch barrier, serve once a second (needs -regions > 1)")
	fs.BoolVar(&c.eventual, "eventual", false, "serve cross-region reads from the local replica instead of the owner shard (needs -regions > 1)")
	fs.IntVar(&c.deltaLog, "deltalog", 0, "per-volume delta-log cap (0 = metadata default, negative disables the logs)")
	return c
}

// config is the server.Config the flags describe; server.Config.Validate
// refuses the combinations a cluster would ignore when it opens.
func (c *clusterFlags) config() (server.Config, error) {
	policy, err := wal.ParsePolicy(c.fsync)
	if err != nil {
		return server.Config{}, err
	}
	if c.faultRate < 0 || c.faultRate > 1 {
		return server.Config{}, fmt.Errorf("-fault-rate %v outside [0, 1]", c.faultRate)
	}
	return server.Config{
		Config: metadata.Config{
			Durability: c.durability, FsyncPolicy: policy, SnapshotEvery: c.snapshotEvery,
			Regions: c.regions, ReplicationDelay: c.replDelay, EventualReads: c.eventual,
			DeltaLogLimit: c.deltaLog,
		},
		Seed: c.seed, FaultPlan: faults.Uniform(c.seed, c.faultRate), AdmitWatermark: c.admitWatermark,
	}, nil
}

// faulted reports whether requests can fail by injection or shedding.
func (c *clusterFlags) faulted() bool { return c.faultRate > 0 || c.admitWatermark > 0 }

// populationFlags is the workload flag group of sim and analyze.
type populationFlags struct {
	users, days, workers int
	noAttacks, compact   bool
	authFailRate         float64
}

func addPopulationFlags(fs *flag.FlagSet) *populationFlags {
	p := &populationFlags{}
	fs.IntVar(&p.users, "users", 2000, "population size")
	fs.IntVar(&p.days, "days", 30, "trace window in days")
	fs.IntVar(&p.workers, "workers", 1, "parallel generator shards (1 = the goldens' stream; more changes the stream, and the figures vary run to run)")
	fs.BoolVar(&p.noAttacks, "no-attacks", false, "disable the three DDoS events")
	fs.BoolVar(&p.compact, "compact", false, "release each user's client on disconnect (workload.Config.LowMem; the reconnect rescans, so the stream differs from the goldens)")
	fs.Float64Var(&p.authFailRate, "auth-fail-rate", auth.PaperFailureRate, "injected SSO failure share (paper §7.3; 0 disables)")
	return p
}

// configs resolves both groups for a generator run. Clients get the bounded
// virtual-time retry policy when requests can fail: failures are only
// interesting if clients react to them. -users and -days must be positive:
// their zero would silently mean workload.New's default, not what was asked.
// The generator builds a fresh population, so -durability must name an empty
// or new directory: running on a store an earlier run left is a different
// experiment (u1 serve is the command that reopens one).
func (p *populationFlags) configs(c *clusterFlags) (server.Config, workload.Config, error) {
	scfg, err := c.config()
	if err != nil {
		return scfg, workload.Config{}, err
	}
	if p.users <= 0 || p.days <= 0 {
		return scfg, workload.Config{}, fmt.Errorf("-users %d -days %d: both must be positive", p.users, p.days)
	}
	if c.durability != "" {
		if entries, err := os.ReadDir(c.durability); err == nil && len(entries) > 0 {
			return scfg, workload.Config{}, fmt.Errorf("-durability %s is not empty: a generator run needs a fresh store", c.durability)
		}
	}
	scfg.AuthFailureRate = p.authFailRate
	wcfg := workload.Config{Users: p.users, Days: p.days, Seed: c.seed, Workers: p.workers, LowMem: p.compact}
	if p.noAttacks {
		wcfg.Attacks = []workload.Attack{}
	}
	if c.faulted() {
		wcfg.Retry = client.Retry{Max: 2, Backoff: 2 * time.Second}
	}
	return scfg, wcfg, wcfg.Validate()
}

// addDebugFlag declares serve's -debug-addr (see serveDebug).
func addDebugFlag(fs *flag.FlagSet) *string {
	return fs.String("debug-addr", "", "serve /metrics, /healthz and /debug/pprof/ over HTTP on this address (empty disables)")
}
