package sim

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestShardedSingleShardMatchesSerialEngine(t *testing.T) {
	// One shard must reproduce the plain engine's (time, insertion-seq)
	// order exactly, including events scheduled from inside events.
	schedule := func(at func(time.Time, func()), after func(time.Duration, func()), log *[]int) {
		at(t0.Add(3*time.Hour), func() { *log = append(*log, 3) })
		at(t0.Add(1*time.Hour), func() { *log = append(*log, 1) })
		after(2*time.Hour, func() {
			*log = append(*log, 2)
			after(30*time.Minute, func() { *log = append(*log, 25) })
		})
	}
	plain := New(t0)
	var serial []int
	schedule(plain.At, plain.After, &serial)
	for plain.Step() {
	}
	plainRan := plain.Executed()

	se := NewSharded(t0, 1, 0)
	var sharded []int
	schedule(se.Shard(0).At, se.Shard(0).After, &sharded)
	shardedRan := se.Run()

	if plainRan != shardedRan {
		t.Fatalf("event counts differ: plain %d, sharded %d", plainRan, shardedRan)
	}
	if len(serial) != len(sharded) {
		t.Fatalf("logs differ in length: %v vs %v", serial, sharded)
	}
	for i := range serial {
		if serial[i] != sharded[i] {
			t.Fatalf("order diverges at %d: %v vs %v", i, serial, sharded)
		}
	}
}

func TestShardedRunsAllShards(t *testing.T) {
	se := NewSharded(t0, 4, time.Hour)
	var ran atomic.Uint64
	for i := 0; i < se.NumShards(); i++ {
		eng := se.Shard(i)
		var chain func()
		left := 10
		chain = func() {
			ran.Add(1)
			left--
			if left > 0 {
				eng.After(7*time.Minute, chain)
			}
		}
		eng.After(time.Duration(i)*time.Minute, chain)
	}
	total := se.Run()
	if total != 40 || ran.Load() != 40 {
		t.Errorf("ran %d events (counted %d), want 40", total, ran.Load())
	}
	for i, e := range se.shards {
		if len(e.events) != 0 {
			t.Errorf("shard %d: pending = %d after drain", i, len(e.events))
		}
	}
	if se.Executed() != 40 {
		t.Errorf("executed = %d", se.Executed())
	}
}

func TestShardedEpochBarrier(t *testing.T) {
	// Shard clocks never diverge by more than one epoch: an event observes
	// every other shard somewhere inside the same epoch.
	const epoch = time.Hour
	se := NewSharded(t0, 3, epoch)
	var violations atomic.Uint64
	for i := 0; i < se.NumShards(); i++ {
		eng := se.Shard(i)
		others := make([]*Engine, 0, 2)
		for j := 0; j < se.NumShards(); j++ {
			if j != i {
				others = append(others, se.Shard(j))
			}
		}
		var chain func()
		left := 50
		chain = func() {
			now := eng.Now()
			for _, o := range others {
				skew := now.Sub(o.Clock()())
				if skew > epoch || skew < -epoch {
					violations.Add(1)
				}
			}
			left--
			if left > 0 {
				eng.After(13*time.Minute, chain)
			}
		}
		eng.After(time.Minute, chain)
	}
	se.Run()
	if v := violations.Load(); v != 0 {
		t.Errorf("%d cross-shard clock observations exceeded one epoch of skew", v)
	}
}

func TestShardedEpochHooksRunBetweenEpochs(t *testing.T) {
	se := NewSharded(t0, 2, time.Hour)
	const events = 8
	for i := 0; i < se.NumShards(); i++ {
		eng := se.Shard(i)
		for h := 0; h < events; h++ {
			eng.At(t0.Add(time.Duration(h)*time.Hour+30*time.Minute), func() {})
		}
	}
	var hookTimes []time.Time
	se.AtEpochEnd(func(now time.Time) { hookTimes = append(hookTimes, now) })
	se.Run()
	if len(hookTimes) != events {
		t.Fatalf("hook ran %d times, want one per %d epochs", len(hookTimes), events)
	}
	for i, at := range hookTimes {
		want := t0.Add(time.Duration(i+1) * time.Hour)
		if !at.Equal(want) {
			t.Errorf("hook %d at %v, want epoch boundary %v", i, at, want)
		}
	}
	if !se.now.Equal(t0.Add(events * time.Hour)) {
		t.Errorf("engine parked at %v", se.now)
	}
}

func TestShardedSkipsEmptyEpochs(t *testing.T) {
	// A week-long quiet stretch must not cost thousands of barriers: the
	// horizon jumps to the epoch containing the next event.
	se := NewSharded(t0, 2, 10*time.Minute)
	var hooks int
	se.AtEpochEnd(func(time.Time) { hooks++ })
	se.Shard(0).At(t0.Add(5*time.Minute), func() {})
	se.Shard(1).At(t0.Add(7*24*time.Hour), func() {})
	se.Run()
	if hooks > 3 {
		t.Errorf("idle week crossed %d epoch barriers, want ≤ 3", hooks)
	}
}

func TestShardForStableAndCovering(t *testing.T) {
	se := NewSharded(t0, 4, 0)
	seen := make(map[int]int)
	for key := uint64(1); key <= 1000; key++ {
		s1, s2 := se.ShardFor(key), se.ShardFor(key)
		if s1 != s2 {
			t.Fatalf("ShardFor(%d) unstable: %d vs %d", key, s1, s2)
		}
		if s1 < 0 || s1 >= 4 {
			t.Fatalf("ShardFor(%d) = %d out of range", key, s1)
		}
		seen[s1]++
	}
	for shard, n := range seen {
		if n < 150 || n > 350 {
			t.Errorf("shard %d holds %d of 1000 keys; hash badly skewed", shard, n)
		}
	}
}

func TestClockClosureRaceFree(t *testing.T) {
	// Clock closures are read from other goroutines while the engine runs
	// (transports stamping spans); -race must stay clean and observed times
	// must never precede the start.
	se := NewSharded(t0, 2, time.Hour)
	eng := se.Shard(0)
	clock := eng.Clock()
	for h := 0; h < 100; h++ {
		eng.After(time.Duration(h)*time.Minute, func() {})
	}
	stop := make(chan struct{})
	bad := make(chan time.Time, 1)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				if now := clock(); now.Before(t0) {
					select {
					case bad <- now:
					default:
					}
				}
			}
		}
	}()
	se.Run()
	close(stop)
	select {
	case at := <-bad:
		t.Errorf("clock observed %v, before start %v", at, t0)
	default:
	}
}

func TestEpochPinnedByDefault(t *testing.T) {
	// The constructor's epoch is the epoch for the whole run — the contract
	// the determinism goldens are recorded under.
	se := NewSharded(t0, 2, time.Hour)
	var observed []time.Duration
	se.AtEpochEnd(func(time.Time) { observed = append(observed, se.epoch) })
	for i := 0; i < se.NumShards(); i++ {
		eng := se.Shard(i)
		for h := 0; h < 6; h++ {
			eng.At(t0.Add(time.Duration(h)*time.Hour+30*time.Minute), func() {})
		}
	}
	se.Run()
	if len(observed) == 0 {
		t.Fatal("no epochs closed")
	}
	for i, e := range observed {
		if e != time.Hour {
			t.Fatalf("epoch %d resized to %v", i, e)
		}
	}
}
