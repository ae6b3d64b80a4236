package scenario

import (
	"encoding/json"
	"fmt"
	"os"

	"u1/internal/metrics"
)

// reportSchema identifies the chaos report format WriteReport emits.
const reportSchema = "u1-chaos/1"

// ClassStats is one op class's error accounting in a scenario report: how
// many operations the class saw and how many errored.
type ClassStats struct {
	Ops    uint64  `json:"ops"`
	Errors uint64  `json:"errors"`
	Rate   float64 `json:"rate"`
}

// ReplicationStats is a scenario report's cross-region replication section:
// published vs applied record counts, read routing
// (local replica vs remote owner, and how many local reads were provably
// stale), the backlog depth at snapshot time, and replication lag in epochs.
// Present only for runs with 2+ regions.
type ReplicationStats struct {
	Published    uint64  `json:"published"`
	Applied      uint64  `json:"applied"`
	ReadsLocal   uint64  `json:"reads_local,omitempty"`
	ReadsRemote  uint64  `json:"reads_remote,omitempty"`
	ReadsStale   uint64  `json:"reads_stale,omitempty"`
	BacklogDepth int64   `json:"backlog_depth"`
	LagMeanEp    float64 `json:"lag_mean_epochs"`
	LagMaxEp     float64 `json:"lag_max_epochs"`
}

// Stats is one named chaos scenario's report: the workload scale it ran at,
// the fault machinery's counters, error rates by shedding class, the per-op
// latency profile (serial runs only — sampled RPC durations are not
// reproducible under a parallel driver, so the runner omits them rather than
// publish numbers that vary run to run), replication counters when regions
// were on, the invariant verdict, and — for scenarios that run an unmitigated
// comparison leg — the baseline's stats nested inside.
type Stats struct {
	Description string `json:"description,omitempty"`
	Users       int    `json:"users"`
	Days        int    `json:"days"`
	Seed        int64  `json:"seed"`
	Workers     int    `json:"workers"`

	Sessions    uint64 `json:"sessions"`
	FailedAuths uint64 `json:"failed_auths"`
	TotalOps    uint64 `json:"total_ops"`
	TotalErrors uint64 `json:"total_errors"`

	Injected       uint64 `json:"injected"`
	Shed           uint64 `json:"shed"`
	SSOShed        uint64 `json:"sso_shed"`
	Retried        uint64 `json:"retried"`
	RetrySucceeded uint64 `json:"retry_succeeded"`
	// AuthOverloaded counts requests the SSO back-end's capacity model
	// failed (goodput collapse under storm load).
	AuthOverloaded uint64 `json:"auth_overloaded"`

	// ErrorRates keys faults.Class names (data/metadata/session).
	ErrorRates map[string]ClassStats `json:"error_rates"`
	// Ops carries per-op latency percentiles; present only for Workers=1
	// runs (see the type comment). OpsPerSec is zero: scenario reports carry
	// no wall-clock, for determinism.
	Ops map[string]metrics.OpStats `json:"ops,omitempty"`
	// WALJournaled counts mutations charged a journal sync (durable runs).
	WALJournaled uint64 `json:"wal_journaled,omitempty"`
	// Replication carries the cross-region counters (multi-region runs).
	Replication *ReplicationStats `json:"replication,omitempty"`

	// Invariant is "pass" or the violated invariant's description.
	Invariant string `json:"invariant"`
	// Baseline is the unmitigated comparison leg, when the scenario has one.
	Baseline *Stats `json:"baseline,omitempty"`
}

// replicationOf folds the snapshot's replication series into the report
// section; nil when none of them fired (single-region runs).
func replicationOf(snap metrics.Snapshot) *ReplicationStats {
	repl := ReplicationStats{
		Published:    snap.Counter(metrics.ReplPublished),
		Applied:      snap.Counter(metrics.ReplApplied),
		ReadsLocal:   snap.Counter(metrics.ReplReadsLocal),
		ReadsRemote:  snap.Counter(metrics.ReplReadsRemote),
		ReadsStale:   snap.Counter(metrics.ReplReadsStale),
		BacklogDepth: snap.Gauge(metrics.ReplBacklogDepth),
	}
	if lag := snap.Histogram(metrics.ReplLagEpochs); lag.Count > 0 {
		repl.LagMeanEp = lag.Mean
		repl.LagMaxEp = lag.Max
	}
	if repl == (ReplicationStats{}) {
		return nil
	}
	return &repl
}

// WriteReport writes per-scenario stats, keyed by catalog name, to path as
// the indented u1-chaos/1 report: {"schema": …, "scenarios": {…}}.
func WriteReport(path string, scenarios map[string]Stats) error {
	data, err := json.MarshalIndent(struct {
		Schema    string           `json:"schema"`
		Scenarios map[string]Stats `json:"scenarios"`
	}{reportSchema, scenarios}, "", "  ")
	if err != nil {
		return fmt.Errorf("scenario: encoding chaos report: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("scenario: writing chaos report: %w", err)
	}
	return nil
}
