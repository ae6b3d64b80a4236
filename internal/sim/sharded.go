package sim

import (
	"sync"
	"sync/atomic"
	"time"

	"u1/internal/stats"
)

// ShardedEngine partitions a simulation across W per-shard single-threaded
// Engines and advances them in bounded virtual-time epochs: every epoch, all
// shards run concurrently up to a shared horizon, then a barrier closes the
// epoch and the AtEpochEnd hooks run serially, in registration order, before
// the next epoch opens. The generator's one hook runs the cluster's periodic
// work.
//
// Each shard keeps the plain Engine's (time, insertion-seq) determinism
// internally, so a simulation whose entities are pinned to shards (stable
// key→shard hash, events only ever scheduled onto the owning shard) is
// reproducible for a fixed (seed, shard count) regardless of how the shard
// goroutines interleave. Shard clocks are mutually skewed by at most one
// epoch: an event on shard A observes cross-shard state from anywhere inside
// the same epoch, which is the relaxation that buys parallelism.
//
// With one shard the engine degenerates to the serial case: the single shard
// runs every epoch on the caller's goroutine in exactly the order stepping a
// bare Engine would use, and the barrier only runs the hooks.
type ShardedEngine struct {
	epoch  time.Duration
	now    time.Time
	shards []*Engine
	hooks  []func(now time.Time)
}

// DefaultEpoch bounds shard clock skew, and so how often the barrier hooks
// run: every barrier lands on a multiple of it from the start.
const DefaultEpoch = 10 * time.Minute

// NewSharded creates a sharded engine with the given shard count (min 1)
// starting at the given virtual time. epoch <= 0 picks DefaultEpoch.
func NewSharded(start time.Time, shards int, epoch time.Duration) *ShardedEngine {
	if shards < 1 {
		shards = 1
	}
	if epoch <= 0 {
		epoch = DefaultEpoch
	}
	s := &ShardedEngine{epoch: epoch, now: start}
	s.shards = make([]*Engine, shards)
	for i := range s.shards {
		s.shards[i] = New(start)
	}
	return s
}

// NumShards returns the shard count.
func (s *ShardedEngine) NumShards() int { return len(s.shards) }

// Shard returns shard i's engine. Scheduling onto a shard is only safe from
// that shard's own events (or between Run calls); cross-shard scheduling
// from a running event would race on the target heap.
func (s *ShardedEngine) Shard(i int) *Engine { return s.shards[i] }

// ShardFor maps a stable key (user id) to its owning shard via a splitmix64
// mix, so the assignment is uniform and independent of the shard count's
// divisibility structure.
func (s *ShardedEngine) ShardFor(key uint64) int {
	return int(stats.Splitmix64(key+stats.Splitmix64Gamma) % uint64(len(s.shards)))
}

// AtEpochEnd registers fn to run serially after every epoch barrier with the
// epoch-end time. Hooks run on the Run goroutine while no shard executes, so
// they may touch cross-shard state safely; they must not schedule events
// (use shard 0's engine before Run for scheduled work). Every hook fires
// exactly once per barrier, in registration order.
func (s *ShardedEngine) AtEpochEnd(fn func(now time.Time)) {
	s.hooks = append(s.hooks, fn)
}

// Executed returns the number of events run so far across all shards.
func (s *ShardedEngine) Executed() uint64 {
	var n uint64
	for _, e := range s.shards {
		n += e.Executed()
	}
	return n
}

// earliest returns the earliest queued event time across shards.
func (s *ShardedEngine) earliest() (time.Time, bool) {
	var min time.Time
	var ok bool
	for _, e := range s.shards {
		if at, has := e.NextEventAt(); has && (!ok || at.Before(min)) {
			min, ok = at, true
		}
	}
	return min, ok
}

// horizonFor returns the end of the epoch containing next, skipping empty
// epochs in one step so idle stretches cost no barriers.
func (s *ShardedEngine) horizonFor(next time.Time) time.Time {
	h := s.now.Add(s.epoch)
	if next.After(h) {
		n := next.Sub(s.now) / s.epoch
		h = s.now.Add((n + 1) * s.epoch)
	}
	return h
}

// Run drains every shard in epoch lockstep and returns the number of events
// run. Events scheduled during an epoch for times inside it run in the same
// epoch; AtEpochEnd hooks run between epochs.
func (s *ShardedEngine) Run() uint64 {
	var total uint64
	for {
		next, ok := s.earliest()
		if !ok {
			return total
		}
		horizon := s.horizonFor(next)
		if len(s.shards) == 1 {
			total += s.shards[0].RunUntil(horizon)
		} else {
			var ran atomic.Uint64
			var wg sync.WaitGroup
			for _, e := range s.shards {
				wg.Add(1)
				go func(e *Engine) {
					defer wg.Done()
					ran.Add(e.RunUntil(horizon))
				}(e)
			}
			wg.Wait()
			total += ran.Load()
		}
		s.now = horizon
		for _, fn := range s.hooks {
			fn(horizon)
		}
	}
}
