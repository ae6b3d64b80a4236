package metrics

import "sync"

// ShardLock is a metadata shard's read-write lock with its load accounting
// built in: the paper's access pattern (§3.4) runs reads in parallel on the
// slave and serializes writes on the master, and the ShardSeries counters
// and hold histograms are the live view of that load (Fig. 14). The mutex is
// unexported and no method hands it out, so every acquisition is either
// counted and timed (RLock/RUnlock, Lock/Unlock) or says in its name that
// it is not (the Uncounted methods, for maintenance that is not client
// load). The counted pairs allocate nothing:
//
//	defer sh.RUnlock(sh.RLock()) // defer evaluates RLock() immediately
//
// or, with early-release paths:
//
//	hold := sh.Lock()
//	...
//	sh.Unlock(hold)
type ShardLock struct {
	mu                  sync.RWMutex
	reads, writes       *Counter
	readHold, writeHold *Histogram
}

// NewShardLock returns an unlocked lock recording into series of reg (nil
// for an unregistered one).
func NewShardLock(reg *Registry, series ShardSeries) ShardLock {
	return ShardLock{
		reads:     reg.Counter(series.Reads),
		writes:    reg.Counter(series.Writes),
		readHold:  reg.Histogram(series.ReadHold),
		writeHold: reg.Histogram(series.WriteHold),
	}
}

// RLock counts a read, takes the read lock and starts timing the hold.
func (l *ShardLock) RLock() Stopwatch {
	l.reads.Inc()
	l.mu.RLock()
	// Virtual time is frozen while a goroutine holds a lock, so only the host
	// clock can measure contention.
	return StartStopwatch()
}

// RUnlock releases a read lock taken by RLock and records its hold.
func (l *ShardLock) RUnlock(hold Stopwatch) {
	l.mu.RUnlock()
	hold.Observe(l.readHold)
}

// Lock counts a write, takes the write lock and starts timing the hold.
func (l *ShardLock) Lock() Stopwatch {
	l.writes.Inc()
	l.mu.Lock()
	return StartStopwatch()
}

// Unlock releases a write lock taken by Lock and records its hold.
func (l *ShardLock) Unlock(hold Stopwatch) {
	l.mu.Unlock()
	hold.Observe(l.writeHold)
}

// RLockUncounted takes the read lock without counting or timing it.
func (l *ShardLock) RLockUncounted() { l.mu.RLock() }

// RUnlockUncounted releases a read lock taken by RLockUncounted.
func (l *ShardLock) RUnlockUncounted() { l.mu.RUnlock() }

// LockUncounted takes the write lock without counting or timing it.
func (l *ShardLock) LockUncounted() { l.mu.Lock() }

// UnlockUncounted releases a write lock taken by LockUncounted.
func (l *ShardLock) UnlockUncounted() { l.mu.Unlock() }

// Loads returns the counted reads and writes so far.
func (l *ShardLock) Loads() (reads, writes uint64) {
	return l.reads.Value(), l.writes.Value()
}
