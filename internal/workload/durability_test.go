package workload

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"u1/internal/apiserver"
	"u1/internal/client"
	"u1/internal/faults"
	"u1/internal/metadata"
	"u1/internal/metrics"
	"u1/internal/server"
	"u1/internal/trace"
	"u1/internal/vfs"
	"u1/internal/wal"
)

// The durable metadata tier must be invisible to the simulation schedule:
// journaling happens under the same shard locks as the in-memory mutation,
// and the fsync cost the API server charges lands in latency
// histograms, never in event ordering. These tests pin that contract against
// the established goldens and against in-memory runs of the hard fault case.

// TestDurableWorkersOneMatchesGolden reproduces the golden totals and record
// counts with the WAL on at the most expensive policy: durability must not
// perturb the Workers=1 stream by a single op.
func TestDurableWorkersOneMatchesGolden(t *testing.T) {
	for _, c := range goldens {
		apiserver.ResetSessionIDs()
		cluster, err := server.OpenCluster(server.Config{
			Seed: c.seed, Config: metadata.Config{Durability: "/u1", FS: vfs.NewMemFS(), FsyncPolicy: wal.FsyncPerOp},
		})
		if err != nil {
			t.Fatal(err)
		}
		col := trace.NewCollector(trace.Config{Start: PaperStart, Days: c.days, Shards: cluster.Store.NumShards(), Seed: c.seed})
		cluster.AddAPIObserver(col.APIObserver())
		cluster.AddRPCObserver(col.RPCObserver())
		g := New(Config{Users: c.users, Days: c.days, Start: PaperStart, Seed: c.seed,
			Workers: 1, Attacks: []Attack{}}, cluster)
		g.Run()
		c.check(t, g.totals, col, cluster)
		snap := cluster.Metrics.Snapshot()
		if n := snap.Counter(metrics.WALJournaled); n == 0 {
			t.Error("no mutation was charged a journal sync; the contract was not exercised")
		}
		if n := snap.Counter(metrics.WALErrors); n != 0 {
			t.Errorf("journal errors during golden run: %d", n)
		}
		if err := cluster.Close(); err != nil {
			t.Errorf("closing durable cluster: %v", err)
		}
	}
}

// durableFaultRun is faults_test.go's faultRun against a journaling cluster.
func durableFaultRun(t *testing.T, workers int, plan *faults.Plan, retry client.Retry) (Totals, int, map[uint64][]string, metrics.Snapshot) {
	t.Helper()
	cluster, err := server.OpenCluster(server.Config{
		Seed: 3, FaultPlan: plan,
		Config: metadata.Config{Durability: "/u1", FS: vfs.NewMemFS(), FsyncPolicy: wal.FsyncGroupCommit},
	})
	if err != nil {
		t.Fatal(err)
	}
	col := trace.NewCollector(trace.Config{Start: PaperStart, Days: 2, Shards: cluster.Store.NumShards(), Seed: 3})
	cluster.AddAPIObserver(col.APIObserver())
	cluster.AddRPCObserver(col.RPCObserver())
	g := New(Config{Users: 120, Days: 2, Start: PaperStart, Seed: 3, Workers: workers,
		Attacks: []Attack{}, Retry: retry}, cluster)
	g.Run()
	streams := make(map[uint64][]string)
	for _, r := range col.Records() {
		streams[r.User] = append(streams[r.User],
			fmt.Sprintf("%d/%d/%d", r.Kind, r.Op, r.Status))
	}
	snap := cluster.Metrics.Snapshot()
	if err := cluster.Close(); err != nil {
		t.Errorf("closing durable cluster: %v", err)
	}
	return g.totals, col.Len(), streams, snap
}

// TestDurableFaultRunMatchesInMemory pins the full determinism contract with
// durability on: the same (Seed, Workers, FaultPlan) produces the same
// totals, record counts, per-user op streams, and fault counters as the
// in-memory cluster — injected failures, retries and all — at both ends of
// the worker range.
func TestDurableFaultRunMatchesInMemory(t *testing.T) {
	plan := faults.Uniform(11, 0.05)
	retry := client.Retry{Max: 2, Backoff: 2 * time.Second}
	for _, workers := range []int{1, 4} {
		t1, n1, s1, m1 := faultRun(t, workers, plan, retry)
		t2, n2, s2, m2 := durableFaultRun(t, workers, plan, retry)
		if t1 != t2 {
			t.Errorf("workers=%d: durable totals differ from in-memory:\n%+v\n%+v", workers, t1, t2)
		}
		if n1 != n2 {
			t.Errorf("workers=%d: record counts differ: in-memory %d vs durable %d", workers, n1, n2)
		}
		for _, key := range []string{"injected", "shed", "retried", "retry_succeeded"} {
			a, b := m1.Counters[metrics.FaultsPrefix+key], m2.Counters[metrics.FaultsPrefix+key]
			if a != b {
				t.Errorf("workers=%d: faults.%s differs: in-memory %d vs durable %d", workers, key, a, b)
			}
		}
		if !reflect.DeepEqual(s1, s2) {
			for user := range s1 {
				if !reflect.DeepEqual(s1[user], s2[user]) {
					t.Errorf("workers=%d: user %d op stream differs:\nin-memory %v\ndurable   %v",
						workers, user, s1[user], s2[user])
					break
				}
			}
		}
		if m2.Counter(metrics.WALJournaled) == 0 {
			t.Errorf("workers=%d: durable run journaled nothing; the contract was not exercised", workers)
		}
	}
}
