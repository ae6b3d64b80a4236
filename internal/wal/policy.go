package wal

import (
	"fmt"
	"time"
)

// Policy selects when appended records are fsynced to stable storage — the
// classic durability/latency trade, priced into the request path by a
// deterministic cost model so simulated latencies stay host-independent.
type Policy uint8

// Fsync policies.
const (
	// FsyncPerOp syncs after every append: no acknowledged write can be
	// lost, at one disk flush per mutation.
	FsyncPerOp Policy = iota
	// FsyncGroupCommit syncs once every eight appends (groupEvery),
	// amortizing the flush across the batch as databases do under
	// concurrent commits.
	FsyncGroupCommit
	// FsyncAsync never syncs on the request path; the OS flushes in the
	// background and Close syncs once. A machine crash (not a process crash)
	// can lose the unflushed tail.
	FsyncAsync
)

// groupEvery is the group-commit batch size: the cadence the log syncs at,
// and the batch SyncCost amortizes one flush over.
const groupEvery = 8

// String implements fmt.Stringer with the flag-value spellings ParsePolicy
// accepts.
func (p Policy) String() string {
	switch p {
	case FsyncPerOp:
		return "per-op"
	case FsyncGroupCommit:
		return "group"
	case FsyncAsync:
		return "async"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// ParsePolicy maps a flag value to its Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "per-op", "perop", "per_op":
		return FsyncPerOp, nil
	case "group", "group-commit", "group_commit":
		return FsyncGroupCommit, nil
	case "async":
		return FsyncAsync, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want per-op, group, or async)", s)
	}
}

// SyncCost is the deterministic per-mutation service time the API server
// charges to protocol.Cost on a disk whose modeled flush takes flush
// (vfs.FS.FlushCost): the full flush under per-op sync, the flush amortized
// over the batch under group commit, and nothing under async. A pure
// function of the policy and the disk model — never of host disk speed — so a
// fixed (Seed, Workers, FaultPlan) run stays bit-for-bit reproducible with
// durability on.
func (p Policy) SyncCost(flush time.Duration) time.Duration {
	switch p {
	case FsyncPerOp:
		return flush
	case FsyncGroupCommit:
		return flush / groupEvery
	default:
		return 0
	}
}
