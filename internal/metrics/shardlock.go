package metrics

import "sync"

// ShardLock is a metadata shard's read-write lock with its load accounting
// built in: the paper's access pattern (§3.4) runs reads in parallel on the
// slave and serializes writes on the master, and the ShardSeries counters
// and hold histograms are the live view of that load (Fig. 14). The mutex is
// unexported and no method hands it out, so every acquisition is either
// counted (RLock/RUnlock, Lock/Unlock) or says in its name that it is not
// (the Uncounted methods, for maintenance that is not client load). The
// counters are exact; the hold histograms time only the acquisitions whose
// counter add returns n ≡ 1 (mod holdSample): ⌈acquisitions/holdSample⌉ holds
// under any interleaving, whose sum × holdSample estimates the total hold.
// The counted pairs allocate nothing:
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

// holdSample is the period of the hold histograms' sample, not a knob.
const holdSample = 16

// sampled times the hold of the acquisition that counted n if it is sampled:
// virtual time is frozen under a lock, so only the host clock sees contention.
func sampled(n uint64) (hold Stopwatch) {
	if n%holdSample == 1 {
		hold = StartStopwatch()
	}
	return hold
}

// RLock counts a read, takes the read lock and returns its hold's stopwatch.
func (l *ShardLock) RLock() Stopwatch {
	n := l.reads.v.Add(1)
	l.mu.RLock()
	return sampled(n)
}

// RUnlock releases a read lock taken by RLock and records a sampled hold.
func (l *ShardLock) RUnlock(hold Stopwatch) {
	l.mu.RUnlock()
	hold.Observe(l.readHold)
}

// Lock counts a write, takes the write lock and returns its hold's stopwatch.
func (l *ShardLock) Lock() Stopwatch {
	n := l.writes.v.Add(1)
	l.mu.Lock()
	return sampled(n)
}

// Unlock releases a write lock taken by Lock and records a sampled hold.
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
