package workload

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"u1/internal/apiserver"
	"u1/internal/client"
	"u1/internal/faults"
	"u1/internal/metrics"
	"u1/internal/server"
	"u1/internal/trace"
)

// faultRun generates a small trace against a cluster with the given fault
// plan and returns everything the determinism contract pins: the totals, the
// per-user op streams (each user's ordered (kind, op, status) sequence), the
// record count, and the cluster's fault counters.
func faultRun(t *testing.T, workers int, plan *faults.Plan, retry client.Retry) (Totals, int, map[uint64][]string, metrics.Snapshot) {
	t.Helper()
	cluster := server.NewCluster(server.Config{Seed: 3, FaultPlan: plan})
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
	return g.totals, col.Len(), streams, cluster.Metrics.Snapshot()
}

// TestFaultPlanDeterministicAcrossRuns pins the injection contract at both
// ends of the worker range: the same (Seed, Workers, FaultPlan) reproduces
// the same injected-failure count and the same per-user op streams —
// including the retried requests the failures provoke — regardless of
// goroutine interleaving.
func TestFaultPlanDeterministicAcrossRuns(t *testing.T) {
	plan := faults.Uniform(11, 0.05)
	retry := client.Retry{Max: 2, Backoff: 2 * time.Second}
	for _, workers := range []int{1, 4} {
		t1, n1, s1, m1 := faultRun(t, workers, plan, retry)
		t2, n2, s2, m2 := faultRun(t, workers, plan, retry)
		if t1 != t2 {
			t.Errorf("workers=%d: totals differ:\n%+v\n%+v", workers, t1, t2)
		}
		if n1 != n2 {
			t.Errorf("workers=%d: record counts differ: %d vs %d", workers, n1, n2)
		}
		for _, key := range []string{"injected", "retried", "retry_succeeded"} {
			a, b := m1.Counters[metrics.FaultsPrefix+key], m2.Counters[metrics.FaultsPrefix+key]
			if a != b {
				t.Errorf("workers=%d: faults.%s differs: %d vs %d", workers, key, a, b)
			}
		}
		if !reflect.DeepEqual(s1, s2) {
			for user := range s1 {
				if !reflect.DeepEqual(s1[user], s2[user]) {
					t.Errorf("workers=%d: user %d op stream differs:\n%v\n%v",
						workers, user, s1[user], s2[user])
					break
				}
			}
		}
		if m1.Counter(metrics.FaultsInjected) == 0 {
			t.Errorf("workers=%d: plan injected nothing; the contract was not exercised", workers)
		}
		if m1.Counter(metrics.FaultsRetried) == 0 {
			t.Errorf("workers=%d: no retries arrived; the retry path was not exercised", workers)
		}
	}
}

// TestZeroValueFaultPlanPreservesGolden pins behavior preservation: a
// zero-value plan threaded through the whole stack (and a zero retry
// policy) reproduces the failure-free golden totals and record counts
// bit-for-bit at Workers=1 — injection off means nothing changed.
func TestZeroValueFaultPlanPreservesGolden(t *testing.T) {
	for _, c := range goldens {
		apiserver.ResetSessionIDs()
		cluster := server.NewCluster(server.Config{Seed: c.seed, FaultPlan: &faults.Plan{}})
		col := trace.NewCollector(trace.Config{Start: PaperStart, Days: c.days, Shards: cluster.Store.NumShards(), Seed: c.seed})
		cluster.AddAPIObserver(col.APIObserver())
		cluster.AddRPCObserver(col.RPCObserver())
		g := New(Config{Users: c.users, Days: c.days, Start: PaperStart, Seed: c.seed,
			Workers: 1, Attacks: []Attack{}}, cluster)
		g.Run()
		c.check(t, g.totals, col, cluster)
		snap := cluster.Metrics.Snapshot()
		for _, key := range []string{"injected", "shed", "retried"} {
			if n := snap.Counters[metrics.FaultsPrefix+key]; n != 0 {
				t.Errorf("zero-value plan produced faults.%s = %d", key, n)
			}
		}
	}
}

// TestFaultPlanShiftsErrorsIntoTrace sanity-checks the end-to-end thread: a
// uniform plan at a visible rate surfaces as non-OK storage records in the
// collected trace, the raw material of the error-rate-by-op-class analysis.
func TestFaultPlanShiftsErrorsIntoTrace(t *testing.T) {
	_, _, streams, snap := faultRun(t, 1, faults.Uniform(7, 0.05), client.Retry{})
	var failed int
	for _, ops := range streams {
		for _, sig := range ops {
			var kind, op, status int
			fmt.Sscanf(sig, "%d/%d/%d", &kind, &op, &status)
			if status != 0 {
				failed++
			}
		}
	}
	if failed == 0 {
		t.Error("no failed records in the trace despite 5% injection")
	}
	if snap.Counter(metrics.FaultsInjected) == 0 {
		t.Error("injection counter never fired")
	}
}
