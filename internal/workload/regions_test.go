package workload

import (
	"testing"

	"u1/internal/apiserver"
	"u1/internal/metadata"
	"u1/internal/metrics"
	"u1/internal/server"
	"u1/internal/trace"
)

// runRegions drives a small workload against a two-region cluster and
// returns the generator, collector and cluster for inspection.
func runRegions(t *testing.T, users, days int, seed int64, workers int, eventual bool, delay int) (*Generator, *trace.Collector, *server.Cluster) {
	t.Helper()
	cluster := server.NewCluster(server.Config{
		Seed:   seed,
		Config: metadata.Config{Regions: 2, ReplicationDelay: delay, EventualReads: eventual},
	})
	col := trace.NewCollector(trace.Config{Start: PaperStart, Days: days, Shards: cluster.Store.NumShards(), Seed: seed})
	cluster.AddAPIObserver(col.APIObserver())
	cluster.AddRPCObserver(col.RPCObserver())
	g := New(Config{Users: users, Days: days, Start: PaperStart, Seed: seed, Workers: workers, Attacks: []Attack{}}, cluster)
	g.Run()
	return g, col, cluster
}

// replCounters extracts the replication counters that the determinism
// contract pins: publication, application and read-routing tallies.
func replCounters(c *server.Cluster) map[string]uint64 {
	snap := c.Metrics.Snapshot()
	out := make(map[string]uint64)
	for _, k := range []string{
		"repl.published", "repl.applied",
		"repl.reads.local", "repl.reads.remote", "repl.reads.stale",
	} {
		out[k] = snap.Counters[k]
	}
	return out
}

// requireReplicasConverged drains the replication backlog and checks every
// cross-region replica against the owner shard's fingerprint.
func requireReplicasConverged(t *testing.T, c *server.Cluster) {
	t.Helper()
	st := c.Store
	st.DrainReplication()
	if bl := c.Metrics.Gauge(metrics.ReplBacklogDepth).Value(); bl != 0 {
		t.Fatalf("backlog %d after drain", bl)
	}
	for r := 0; r < st.Regions(); r++ {
		for sh := 0; sh < st.NumShards(); sh++ {
			if st.RegionOf(sh) == r {
				continue
			}
			if got, want := st.ReplicaFingerprint(r, sh), st.ShardFingerprint(sh); got != want {
				t.Errorf("region %d replica of shard %d diverged: %s != %s", r, sh, got, want)
			}
		}
	}
}

// TestRegionsReadYourWritesMatchesGolden pins that turning on two regions
// with read-your-writes routing is invisible to the workload: replication is
// pure background at epoch barriers, every read still lands on the owner
// shard, and the first Workers=1 golden reproduces bit-for-bit.
func TestRegionsReadYourWritesMatchesGolden(t *testing.T) {
	c := goldens[0]
	apiserver.ResetSessionIDs()
	g, col, cluster := runRegions(t, c.users, c.days, c.seed, 1, false, 1)
	c.check(t, g.totals, col, cluster)
	if pub := replCounters(cluster)["repl.published"]; pub == 0 {
		t.Error("no replication records published — the region wiring is dead")
	}
	requireReplicasConverged(t, cluster)
}

// TestReplicationDeterministic pins the region determinism contract: a fixed
// (Seed, Workers, Regions) reproduces identical totals, record streams and
// replication counters across runs, at one worker and at four, under
// eventual reads (the mode where routing actually depends on backlog state).
func TestReplicationDeterministic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		g1, col1, c1 := runRegions(t, 100, 2, 7, workers, true, 1)
		g2, col2, c2 := runRegions(t, 100, 2, 7, workers, true, 1)
		if g1.totals != g2.totals {
			t.Errorf("workers=%d: totals differ:\n%+v\n%+v", workers, g1.totals, g2.totals)
		}
		if col1.Len() != col2.Len() {
			t.Errorf("workers=%d: record counts differ: %d vs %d", workers, col1.Len(), col2.Len())
		}
		r1, r2 := replCounters(c1), replCounters(c2)
		for k, v := range r1 {
			if r2[k] != v {
				t.Errorf("workers=%d: counter %s differs: %d vs %d", workers, k, v, r2[k])
			}
		}
		if r1["repl.published"] == 0 {
			t.Errorf("workers=%d: no replication records published", workers)
		}
		requireReplicasConverged(t, c1)
		requireReplicasConverged(t, c2)
	}
}

// TestReplicationTickPinned pins what the barrier's replication tick leaves
// behind at the end of Run, before any drain: published and applied records,
// the backlog still waiting, and the lag histogram. Delay 0 applies a record
// in the tick that seals it, so a tick whose apply pass misses the segment it
// just sealed shows up here as a changed lag sum; delays 1 and 2 pin the
// ageing of records across ticks.
func TestReplicationTickPinned(t *testing.T) {
	type pin struct {
		published, applied uint64
		backlog            int64
		lagCount           uint64
		lagSum             float64
	}
	for _, tc := range []struct {
		workers, delay int
		want           pin
	}{
		{1, 0, pin{2843, 2843, 0, 2843, 0}},
		{1, 1, pin{2843, 2843, 0, 2843, 2843}},
		{1, 2, pin{2843, 2843, 0, 2843, 5686}},
		{4, 0, pin{2843, 2843, 0, 2843, 0}},
		{4, 1, pin{2843, 2843, 0, 2843, 2843}},
		{4, 2, pin{2843, 2843, 0, 2843, 5686}},
	} {
		_, _, c := runRegions(t, 100, 2, 7, tc.workers, true, tc.delay)
		snap := c.Metrics.Snapshot()
		lag := snap.Histogram(metrics.ReplLagEpochs)
		got := pin{
			published: snap.Counter(metrics.ReplPublished),
			applied:   snap.Counter(metrics.ReplApplied),
			backlog:   snap.Gauge(metrics.ReplBacklogDepth),
			lagCount:  lag.Count,
			lagSum:    lag.Sum,
		}
		if got != tc.want {
			t.Errorf("workers=%d delay=%d: got %#v, want %#v", tc.workers, tc.delay, got, tc.want)
		}
	}
}
