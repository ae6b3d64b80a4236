package wal

import (
	"fmt"
	"time"
)

// Policy selects whether a journaled mutation is acknowledged only once a
// flush covers its record — the classic durability/latency trade — and what
// the deterministic cost model charges the request path for it, so simulated
// latencies stay host-independent.
type Policy uint8

// Fsync policies.
const (
	// FsyncPerOp acknowledges a mutation only once a flush covers its record
	// (Log.SyncThrough): no acknowledged write can be lost. The cost model
	// charges one full flush per mutation.
	FsyncPerOp Policy = iota
	// FsyncGroupCommit is the same acknowledgement as FsyncPerOp: the journal
	// has one sync path, where one flush serves every commit waiting on it.
	// The cost model charges a flush amortized over a batch of groupEvery
	// commits, the price of group commit under concurrent load.
	FsyncGroupCommit
	// FsyncAsync acknowledges a mutation once its record is written: the OS
	// flushes in the background, and snapshots and Close flush too. A
	// machine crash (not a process crash) can lose the unflushed tail.
	FsyncAsync
)

// groupEvery is the batch the cost model amortizes one group-commit flush
// over: a modelled price, not a cadence anything syncs at.
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
// over groupEvery commits under group commit, and nothing under async. It
// is a price model only — per-op and group commits wait the same way on the
// real journal — and a pure function of the policy and the disk model,
// never of host disk speed, so a fixed (Seed, Workers, FaultPlan) run stays
// bit-for-bit reproducible with durability on.
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
