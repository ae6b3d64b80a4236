package metrics

import (
	"sync"
	"testing"
)

// shardLoad is what a ShardLock has recorded: its counters and the number of
// observations in its hold histograms.
type shardLoad struct{ reads, writes, readHolds, writeHolds uint64 }

// sampledLoad is the load n counted reads and m counted writes record: every
// acquisition counted, one hold in holdSample timed.
func sampledLoad(n, m uint64) shardLoad {
	return shardLoad{n, m, (n + holdSample - 1) / holdSample, (m + holdSample - 1) / holdSample}
}

func loadOf(r *Registry, l *ShardLock, series ShardSeries) shardLoad {
	reads, writes := l.Loads()
	snap := r.Snapshot()
	return shardLoad{reads, writes,
		snap.Histogram(series.ReadHold).Count, snap.Histogram(series.WriteHold).Count}
}

func TestShardLockCountsOnlyCountedAcquisitions(t *testing.T) {
	r := NewRegistry()
	series := Shard(3)
	l := NewShardLock(r, series)
	steps := []struct {
		name string
		do   func()
		want shardLoad
	}{
		{"read", func() { l.RUnlock(l.RLock()) }, sampledLoad(1, 0)},
		{"write", func() { l.Unlock(l.Lock()) }, sampledLoad(1, 1)},
		{"uncounted read", func() { l.RLockUncounted(); l.RUnlockUncounted() }, sampledLoad(1, 1)},
		{"uncounted write", func() { l.LockUncounted(); l.UnlockUncounted() }, sampledLoad(1, 1)},
		{"deferred read", func() { defer l.RUnlock(l.RLock()) }, sampledLoad(2, 1)},
		{"15 more reads", func() {
			for range 15 {
				l.RUnlock(l.RLock())
			}
		}, sampledLoad(17, 1)}, // the 17th read is the second one timed
		{"16 more writes", func() {
			for range 16 {
				l.Unlock(l.Lock())
			}
		}, sampledLoad(17, 17)},
	}
	for _, st := range steps {
		st.do()
		if got := loadOf(r, &l, series); got != st.want {
			t.Errorf("after %s: %+v, want %+v", st.name, got, st.want)
		}
	}
	if got := r.Snapshot().Counter(series.Reads); got != 17 {
		t.Errorf("registered reads counter = %d, want 17", got)
	}
}

// TestZeroStopwatchObservesNothing pins what an unsampled acquisition hands
// back: the zero Stopwatch records no observation, a started one records
// one.
func TestZeroStopwatchObservesNothing(t *testing.T) {
	h := NewHistogram()
	Stopwatch{}.Observe(h)
	if n := h.Snapshot().Count; n != 0 {
		t.Fatalf("the zero Stopwatch recorded %d observations", n)
	}
	StartStopwatch().Observe(h)
	if s := h.Snapshot(); s.Count != 1 || s.Sum < 0 {
		t.Errorf("a started Stopwatch recorded %d observations summing %v, want one of at least 0", s.Count, s.Sum)
	}
}

// TestShardLockConcurrent runs readers against a writer (under -race in CI):
// the write lock excludes readers, every counted acquisition is counted
// exactly once, and the holds timed are exactly ⌈count/holdSample⌉ whatever
// the interleaving, since the sample is chosen by the counter's atomic add.
func TestShardLockConcurrent(t *testing.T) {
	r := NewRegistry()
	series := Shard(0)
	l := NewShardLock(r, series)
	const readers, per = 8, 500
	var shared int
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				hold := l.RLock()
				_ = shared
				l.RUnlock(hold)
				l.RLockUncounted()
				_ = shared
				l.RUnlockUncounted()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < per; i++ {
			hold := l.Lock()
			shared++
			l.Unlock(hold)
			l.LockUncounted()
			shared++
			l.UnlockUncounted()
		}
	}()
	wg.Wait()
	want := sampledLoad(readers*per, per)
	if got := loadOf(r, &l, series); got != want {
		t.Errorf("load = %+v, want %+v", got, want)
	}
	if shared != 2*per {
		t.Errorf("shared = %d, want %d", shared, 2*per)
	}
}

// BenchmarkShardLock is the per-layer line of the shard lock: one counted
// read acquisition and release, sampled hold timing included.
func BenchmarkShardLock(b *testing.B) {
	l := NewShardLock(NewRegistry(), Shard(0))
	b.ReportAllocs()
	for range b.N {
		l.RUnlock(l.RLock())
	}
}
