package workloads

import (
	"crypto/sha1"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"u1/benchmark/spec"
	"u1/internal/apiserver"
	"u1/internal/metadata"
	"u1/internal/metrics"
	"u1/internal/protocol"
	"u1/internal/rpc"
	"u1/internal/server"
	"u1/internal/trace"
	"u1/internal/wal"
	"u1/internal/workload"
)

// authFailureRate is the paper's share of failed authentications (§7.3),
// injected on the golden stream exactly as cmd/u1bench does.
const authFailureRate = 0.0276

// durablePolicy is sim-durable's journal sync policy. Every mutation still
// crosses the whole journal path — JSON record, wal.Append, the write to the
// segment, replication publish and apply — but the request path never waits
// for the disk. Under group commit 55 % of the run was spent inside fsync on
// the sizing host and ops_per_s wandered by 10–18 % between runs of the same
// code with the disk's mood, which would have made this workload a disk
// benchmark and forced a useless bound on ops_per_s for all five workloads.
// What a sync costs is priced by the wal.append_group_ns and
// wal.syncs_per_append fixtures instead.
const durablePolicy = wal.FsyncAsync

// simObserver is the one observer every sim run attaches: it marks the start
// of the measured phase at the first API request — everything before it
// inside Generator.Run is population build — and classifies answers. Under
// Workers=1 every callback runs on the event-loop goroutine, so plain fields
// are safe.
type simObserver struct {
	cluster *server.Cluster
	started bool
	regAt   metrics.Snapshot
	begin   procSample
	status  [16]uint64
}

func (o *simObserver) observe(e apiserver.Event) {
	if !o.started {
		o.started = true
		o.regAt = o.cluster.Metrics.Snapshot()
		o.begin = sampleProc()
	}
	if e.Status != protocol.StatusOK && int(e.Status) < len(o.status) {
		o.status[e.Status]++
	}
}

// runSim runs one fixed-work batch of a sim-* workload at Workers=1: the
// counts repeat exactly for a seed, which the stream fingerprint pins.
func runSim(o Options, r *Result) error {
	// Session ids feed process placement; rewinding the allocator makes
	// back-to-back runs in one process (the self-test) repeat exactly.
	apiserver.ResetSessionIDs()

	durable := o.Workload == spec.SimDurable
	scaleDay := o.Workload == spec.SimScaleDay
	scfg := server.Config{Seed: o.Seed}
	wcfg := workload.Config{Users: r.Sizes.Users, Days: r.Sizes.Days, Seed: o.Seed, Workers: 1}
	if scaleDay {
		// u1scale's configuration: no delta logs, compact generator, no
		// injected SSO failures, no trace collector.
		scfg.DeltaLogLimit = -1
		wcfg.LowMem = true
	} else {
		scfg.AuthFailureRate = authFailureRate
	}
	var walDir string
	if durable {
		var err error
		if walDir, err = os.MkdirTemp(o.Dir, "wal-"); err != nil {
			return err
		}
		defer os.RemoveAll(walDir) //nolint:errcheck
		scfg.Durability = walDir
		scfg.FsyncPolicy = durablePolicy
		scfg.Regions = 2
		scfg.ReplicationDelay = 1
	}
	cluster, err := server.OpenCluster(scfg)
	if err != nil {
		return err
	}

	var col *trace.Collector
	if !scaleDay {
		col = trace.NewCollector(trace.Config{
			Start: workload.PaperStart, Days: wcfg.Days,
			Shards: cluster.Store.NumShards(), Seed: o.Seed,
		})
		cluster.AddAPIObserver(col.APIObserver())
		cluster.AddRPCObserver(col.RPCObserver())
	}
	obs := &simObserver{cluster: cluster}
	cluster.AddAPIObserver(obs.observe)
	var apiSeen, rpcSeen uint64
	if o.Traced {
		cluster.AddAPIObserver(func(apiserver.Event) { apiSeen++ })
		cluster.AddRPCObserver(func(rpc.Span) { rpcSeen++ })
	}

	g := workload.New(wcfg, cluster)
	runStart := time.Now()
	totals := g.Run()
	end := sampleProc()
	if !obs.started {
		return fmt.Errorf("the generator issued no API request")
	}
	d := regDelta{before: obs.regAt, after: cluster.Metrics.Snapshot()}

	steady := end.at.Sub(obs.begin.at).Seconds()
	requests := d.requests()
	events := float64(g.Engine().Executed())
	r.MeasuredSeconds, r.Loops = steady, 1
	r.Metrics["setup_s"] = obs.begin.at.Sub(o.Start).Seconds()
	r.Metrics["ops_per_s"] = requests / steady
	r.Metrics["events_per_s"] = events / steady
	r.Metrics["failed_share"] = d.errors() / requests
	r.processLayer(obs.begin, end, uint64(requests))
	r.heapPerUser(wcfg.Users, cluster, g, col)

	r.Attempted = uint64(requests)
	for s, n := range obs.status {
		if isFault(protocol.Status(s)) {
			r.Failed += n
		} else {
			r.Refused += n
		}
	}

	r.registryLayers(d, cluster)
	r.Layers["workload.preseed_us_per_user"] = obs.begin.at.Sub(runStart).Seconds() * 1e6 / float64(wcfg.Users)
	r.Layers["workload.events_per_op"] = events / requests
	r.Counts["sim.event_ns"] = events
	if col != nil {
		r.Counts["trace.collect_ns_per_record"] = float64(col.Len())
	}
	if o.Traced {
		// The benchmark's own observers must agree with the program's
		// counters; part streaming is counted but never reported as an event.
		r.check("observer-counts", float64(apiSeen) <= requests && rpcSeen > 0,
			"observers saw %d API events and %d RPC spans for %.0f requests", apiSeen, rpcSeen, requests)
	}

	r.Fingerprint = streamFingerprint(totals, cluster.Metrics.Snapshot(), g.Engine().Executed())
	r.check("no-faults", r.Failed == 0, "%d requests answered unavailable, overloaded or cancelled", r.Failed)
	if durable {
		if err := recoverDurable(o, r, cluster, scfg, walDir); err != nil {
			return err
		}
	}
	return nil
}

// streamFingerprint digests everything about a sim run that the seed
// determines: the generator's totals, the per-op request and error counts,
// and the number of events executed. Two runs of one seed must agree on it;
// a difference across commits means their rates are over different work.
func streamFingerprint(t workload.Totals, snap metrics.Snapshot, executed uint64) string {
	var names []string
	for name := range snap.Counters {
		if strings.HasPrefix(name, metrics.APIOpPrefix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	h := sha1.New()
	fmt.Fprintf(h, "%+v executed=%d", t, executed)
	for _, name := range names {
		fmt.Fprintf(h, " %s=%d", name, snap.Counters[name])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// recoverDurable is the durable leg's second half: fingerprint every shard,
// crash them all, and time a cold metadata.Open of the same directory. The
// reopened store must fingerprint identically and the journal must have
// logged no error.
func recoverDurable(o Options, r *Result, cluster *server.Cluster, scfg server.Config, walDir string) error {
	store := cluster.Store
	counters := cluster.Metrics.Snapshot().Counters
	r.check("wal-errors", counters[metrics.WALPrefix+"errors"] == 0,
		"%d journal errors", counters[metrics.WALPrefix+"errors"])
	if appends := counters[metrics.WALPrefix+"appends"]; appends > 0 {
		r.Layers["wal.disk_bytes_per_append"] = float64(dirBytes(walDir)) / float64(appends)
	}

	shards := store.NumShards()
	before := make([]string, shards)
	for i := range before {
		before[i] = store.ShardFingerprint(i)
	}
	for i := 0; i < shards; i++ {
		store.CrashShard(i)
	}
	if o.Fault == FaultTornJournal {
		// Shards that journaled nothing since their snapshot have no tail.
		torn := 0
		for i := 0; i < shards; i++ {
			if wal.CorruptTail(store.ShardWALDir(i)) == nil {
				torn++
			}
		}
		if torn == 0 {
			return fmt.Errorf("planting %s: no shard has a journal tail", FaultTornJournal)
		}
	}

	reg := metrics.NewRegistry()
	start := time.Now()
	reopened, err := metadata.Open(metadata.Config{
		Shards: shards, Metrics: reg,
		Durability: walDir, FsyncPolicy: scfg.FsyncPolicy,
		Regions: scfg.Regions, ReplicationDelay: scfg.ReplicationDelay,
	})
	recovery := time.Since(start)
	if err != nil {
		return fmt.Errorf("cold reopen: %w", err)
	}
	defer reopened.Close() //nolint:errcheck
	r.Metrics["recovery_s"] = recovery.Seconds()
	if replayed := reg.Snapshot().Counters[metrics.WALPrefix+"replayed"]; replayed > 0 {
		r.Layers["metadata.recover_us_per_record"] = recovery.Seconds() * 1e6 / float64(replayed)
	}
	diverged := 0
	for i := range before {
		if reopened.ShardFingerprint(i) != before[i] {
			diverged++
		}
	}
	r.check("recovery-fingerprints", diverged == 0, "%d of %d shards differ after the cold reopen", diverged, shards)
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error { //nolint:errcheck
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}
