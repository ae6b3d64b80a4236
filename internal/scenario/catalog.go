package scenario

import (
	"fmt"
	"time"

	"u1/internal/client"
	"u1/internal/faults"
	"u1/internal/metrics"
	"u1/internal/protocol"
	"u1/internal/vfs"
	"u1/internal/wal"
	"u1/internal/workload"
)

// legitSessionsPerUserHour mirrors the workload generator's baseline session
// arrival estimate (workload.baseSessionsPerUserHour): the scale every
// storm and capacity figure in the catalog is sized against.
const legitSessionsPerUserHour = 0.02

// ssoCapacity sizes the SSO back-end for a population: 6× the legitimate
// session arrival rate, in requests per second of virtual time. Headroom
// enough that normal traffic (and the paper's 5–15× auth storms at their
// floor) never notices, small enough that a 40× storm collapses it.
func ssoCapacity(users int) float64 {
	return 6 * legitSessionsPerUserHour * float64(users) / 3600
}

// ssoStormSetup composes the §5.4 login-storm leg. The storm multiplies the
// session arrival rate 40× for two hours against a back-end whose goodput
// collapses past capacity. The mitigated leg puts the fleet-shared token
// bucket in front of the SSO tier, admitting at 2/3 of back-end capacity so
// even the bucket's burst cannot push the backend past its limit.
func ssoStormSetup(p Params, mitigated bool) Setup {
	cl := baseCluster(p)
	capacity := ssoCapacity(p.Users)
	cl.AuthCapacity = capacity
	if mitigated {
		cl.SSOAdmitRate = capacity * 2 / 3
		cl.SSOAdmitBurst = 6
	}
	wl := baseWorkload(p)
	wl.Retry = client.Retry{Max: 2, Backoff: 2 * time.Second}
	wl.Attacks = []workload.Attack{
		{Day: 1, Hour: 10, Duration: 2 * time.Hour, APIFactor: 2, AuthFactor: 40},
	}
	return Setup{Cluster: cl, Workload: wl}
}

// flashCrowdSetup composes the §5.4 leech storm: one leaked credential,
// leeching sessions two orders of magnitude above baseline API activity on
// one shared file, and the per-op-class admission controller standing in for
// the provider-side load shedding U1 operators applied by hand.
func flashCrowdSetup(p Params) Setup {
	cl := baseCluster(p)
	cl.AdmitWatermark = 10
	wl := baseWorkload(p)
	wl.Retry = client.Retry{Max: 2, Backoff: 2 * time.Second}
	wl.Attacks = []workload.Attack{
		{Day: 1, Hour: 13, Duration: 2 * time.Hour, APIFactor: 150, AuthFactor: 12},
	}
	return Setup{Cluster: cl, Workload: wl}
}

// slowDisk is a dying array: every flush takes 16 healthy ones.
type slowDisk struct{ *vfs.MemFS }

func (slowDisk) FlushCost() time.Duration { return 16 * vfs.ModeledFlush }

// slowDiskSetup composes the degraded-performance window Cetin et al. rank
// among the common provider-reported failures: the array is dying, fsyncs
// crawl, and every journaled mutation pays. disk is a slowDisk or a healthy
// in-memory one.
func slowDiskSetup(p Params, disk vfs.FS) Setup {
	cl := baseCluster(p)
	cl.FsyncPolicy = wal.FsyncGroupCommit
	cl.Durability, cl.FS = "/u1", disk
	return Setup{Cluster: cl, Workload: baseWorkload(p)}
}

// thunderingHerdSetup composes a four-hour brownout with herd-forming
// clients: every op except session teardown (kept reliable, as in
// faults.Uniform) fails 85% of the time for the window — Authenticate
// included, which only a phase can express — while failed connections retry
// on a 20-minute backoff instead of waiting for a fresh arrival, so recovery
// is met by a reconnect herd that must drain through the retry machinery.
// 85% (not 100%) keeps enough sessions alive to generate retried in-phase
// traffic, some of which lands: both halves of the retry path exercise.
func thunderingHerdSetup(p Params) Setup {
	rules := make(map[protocol.Op]faults.Rule)
	for _, op := range protocol.Ops() {
		if op == protocol.OpCloseSession {
			continue
		}
		rules[op] = faults.Rule{Fraction: 0.85}
	}
	cl := baseCluster(p)
	cl.FaultPlan = &faults.Plan{
		Seed:   p.Seed,
		Phases: []faults.Phase{{From: at(1, 8), Until: at(1, 12), Rules: rules}},
	}
	wl := baseWorkload(p)
	wl.Retry = client.Retry{Max: 2, Backoff: 2 * time.Second}
	wl.ReconnectBackoff = 20 * time.Minute
	return Setup{Cluster: cl, Workload: wl}
}

func init() {
	register(&Spec{
		Name: "sso-storm",
		Description: "§5.4 login storm vs the SSO-tier token bucket: " +
			"shedding keeps the auth back-end under capacity",
		Live:  true,
		Build: func(p Params) Setup { return ssoStormSetup(p, true) },
		Baseline: func(p Params) Setup {
			return ssoStormSetup(p, false)
		},
		Check: func(res, base *Result) error {
			if res.Totals.AttackSessions == 0 {
				return fmt.Errorf("storm never ran (0 attack sessions)")
			}
			shed := res.Snapshot.Counter(metrics.FaultsSSOShed)
			if shed == 0 {
				return fmt.Errorf("token bucket shed nothing under a 40x login storm")
			}
			if res.Auth.Overloaded != 0 {
				return fmt.Errorf("auth back-end still collapsed behind the bucket: %d goodput-collapse failures", res.Auth.Overloaded)
			}
			if base.Auth.Overloaded == 0 {
				return fmt.Errorf("baseline leg never overloaded the back-end — the storm proves nothing")
			}
			resRate := res.ClassErrorRate(faults.ClassSession)
			baseRate := base.ClassErrorRate(faults.ClassSession)
			if resRate > baseRate {
				return fmt.Errorf("session-class error rate %.4f with shedding exceeds the unshed baseline's %.4f", resRate, baseRate)
			}
			return nil
		},
	})

	register(&Spec{
		Name: "flash-crowd",
		Description: "leaked-credential leech storm on one shared file vs " +
			"per-op-class admission (the ddosdrill, as a catalog entry)",
		Live:     true,
		Defaults: Params{Users: 400, Days: 3, Seed: 11},
		Build:    flashCrowdSetup,
		Check: func(res, _ *Result) error {
			if res.Totals.AttackSessions == 0 {
				return fmt.Errorf("storm never ran (0 attack sessions)")
			}
			if res.Snapshot.Counter(metrics.FaultsShed) == 0 {
				return fmt.Errorf("admission control shed nothing under a 150x flash crowd")
			}
			if res.Snapshot.Counter(metrics.FaultsRetried) == 0 {
				return fmt.Errorf("shed clients never retried — the client backoff path is dead")
			}
			dataRate := res.ClassErrorRate(faults.ClassData)
			sessRate := res.ClassErrorRate(faults.ClassSession)
			if dataRate <= sessRate {
				return fmt.Errorf("shedding ignored class priority: data error rate %.4f not above session rate %.4f", dataRate, sessRate)
			}
			if sessRate > 0.20 {
				return fmt.Errorf("session management starved during the storm: error rate %.4f", sessRate)
			}
			return nil
		},
	})

	register(&Spec{
		Name: "regional-outage",
		Description: "region dies mid-traffic: writes refused at the edge, " +
			"reads served from replicas, failover and recovery lose nothing",
		Defaults: Params{Users: 120, Days: 2, Seed: 7},
		Build: func(p Params) Setup {
			cl := baseCluster(p)
			cl.Regions = 2
			cl.ReplicationDelay = 2
			cl.EventualReads = true
			return Setup{Cluster: cl, Workload: baseWorkload(p), Drill: regionalOutageDrill}
		},
		Check: func(res, _ *Result) error {
			if res.DrillErr != nil {
				return res.DrillErr
			}
			if res.Snapshot.Counter(metrics.ReplPublished) == 0 {
				return fmt.Errorf("workload published no replication records — the replication tick is dead")
			}
			if res.Snapshot.Counter(metrics.APIRegionRefused) == 0 {
				return fmt.Errorf("API edge refused no writes during the outage — the down-region refusal is dead")
			}
			return nil
		},
	})

	register(&Spec{
		Name: "slow-disk",
		Description: "degraded-performance window: fsync cost inflated 16x " +
			"on a durable store; mutations pay, reads don't, nothing is lost",
		Build:    func(p Params) Setup { return slowDiskSetup(p, slowDisk{vfs.NewMemFS()}) },
		Baseline: func(p Params) Setup { return slowDiskSetup(p, vfs.NewMemFS()) },
		Check: func(res, base *Result) error {
			journaled, baseJournaled := res.Snapshot.Counter(metrics.WALJournaled), base.Snapshot.Counter(metrics.WALJournaled)
			if journaled == 0 {
				return fmt.Errorf("no mutations were journaled on a durable store")
			}
			if journaled != baseJournaled {
				return fmt.Errorf("sync-cost inflation changed what got journaled: %d vs baseline %d — a pricing knob must not alter control flow",
					journaled, baseJournaled)
			}
			// Latency invariants only under the serial driver: parallel-run
			// percentiles are not reproducible by contract.
			if res.Params.Workers == 1 {
				degraded, healthy := res.OpP50Ms(protocol.OpMakeFile), base.OpP50Ms(protocol.OpMakeFile)
				if degraded < healthy+5 {
					return fmt.Errorf("slow disk invisible in mutation latency: MakeFile p50 %.2fms vs healthy %.2fms", degraded, healthy)
				}
			}
			return nil
		},
	})

	register(&Spec{
		Name: "shard-crash",
		Description: "every metadata shard crashed and recovered under per-op " +
			"fsync: journal replay loses nothing, the tier serves a fresh upload",
		Defaults: Params{Users: 120, Days: 2, Seed: 7},
		Build: func(p Params) Setup {
			cl := baseCluster(p)
			cl.FsyncPolicy = wal.FsyncPerOp
			disk := vfs.NewMemFS()
			cl.Durability, cl.FS = "/u1", disk
			return Setup{Cluster: cl, Workload: baseWorkload(p), Drill: func(d *Drill) error { return shardCrashDrill(d, disk) }}
		},
		Check: func(res, _ *Result) error {
			if res.DrillErr != nil {
				return res.DrillErr
			}
			if res.Snapshot.Counter(metrics.WALReplayed) == 0 {
				return fmt.Errorf("recovery replayed no journal records — the journal path is dead")
			}
			return nil
		},
	})

	register(&Spec{
		Name: "thundering-herd",
		Description: "four-hour brownout (logins included, via a fault-plan " +
			"phase) then a reconnect-herd resync draining through retries",
		Build: thunderingHerdSetup,
		Check: func(res, _ *Result) error {
			if res.Snapshot.Counter(metrics.FaultsInjected) == 0 {
				return fmt.Errorf("the outage phase injected nothing")
			}
			if res.Totals.FailedAuths == 0 {
				return fmt.Errorf("no login ever failed during a full outage — the phase missed Authenticate")
			}
			if res.Snapshot.Counter(metrics.FaultsRetried) == 0 {
				return fmt.Errorf("no retried traffic arrived — the herd never formed")
			}
			if res.Snapshot.Counter(metrics.FaultsRetrySucceeded) == 0 {
				return fmt.Errorf("no retry ever succeeded — recovery never drained the herd")
			}
			if res.Totals.Sessions == 0 {
				return fmt.Errorf("no session ever ran")
			}
			return nil
		},
	})
}
