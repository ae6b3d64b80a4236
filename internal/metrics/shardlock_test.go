package metrics

import (
	"sync"
	"testing"
)

// shardLoad is what a ShardLock has recorded: its counters and the number of
// observations in its hold histograms.
type shardLoad struct{ reads, writes, readHolds, writeHolds uint64 }

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
		{"read", func() { l.RUnlock(l.RLock()) }, shardLoad{1, 0, 1, 0}},
		{"write", func() { l.Unlock(l.Lock()) }, shardLoad{1, 1, 1, 1}},
		{"uncounted read", func() { l.RLockUncounted(); l.RUnlockUncounted() }, shardLoad{1, 1, 1, 1}},
		{"uncounted write", func() { l.LockUncounted(); l.UnlockUncounted() }, shardLoad{1, 1, 1, 1}},
		{"deferred read", func() { defer l.RUnlock(l.RLock()) }, shardLoad{2, 1, 2, 1}},
	}
	for _, st := range steps {
		st.do()
		if got := loadOf(r, &l, series); got != st.want {
			t.Errorf("after %s: %+v, want %+v", st.name, got, st.want)
		}
	}
	if got := r.Snapshot().Counter(series.Reads); got != 2 {
		t.Errorf("registered reads counter = %d, want 2", got)
	}
}

// TestShardLockConcurrent runs readers against a writer (under -race in CI):
// the write lock excludes readers, and every counted acquisition is counted
// and timed exactly once.
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
	want := shardLoad{readers * per, per, readers * per, per}
	if got := loadOf(r, &l, series); got != want {
		t.Errorf("load = %+v, want %+v", got, want)
	}
	if shared != 2*per {
		t.Errorf("shared = %d, want %d", shared, 2*per)
	}
}
