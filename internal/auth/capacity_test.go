package auth

import (
	"testing"
	"time"
)

var c0 = time.Date(2014, 1, 11, 0, 0, 0, 0, time.UTC)

func TestOverloadedDisabled(t *testing.T) {
	s := New(Config{})
	tok, _ := s.Issue(1)
	for i := 0; i < 1000; i++ {
		if s.Overloaded(tok, c0.Add(time.Duration(i)*time.Millisecond)) {
			t.Fatal("capacity 0 must disable the overload model")
		}
	}
}

func TestOverloadedUnderCapacity(t *testing.T) {
	// 10 req/hour against a 20 req/hour capacity: never overloaded.
	s := New(Config{Capacity: 20.0 / 3600, Seed: 3})
	tok, _ := s.Issue(1)
	for i := 0; i < 10; i++ {
		if s.Overloaded(tok, c0.Add(time.Duration(i)*6*time.Minute)) {
			t.Fatal("under-capacity request failed")
		}
	}
	if st := s.Stats(); st.Overloaded != 0 || st.Failed != 0 {
		t.Errorf("stats = %+v, want no failures", st)
	}
}

func TestOverloadedGoodputCollapse(t *testing.T) {
	// A storm at 10x capacity: failures appear, and the failure fraction
	// approaches 1 - (C/L)² = 0.99 — the further past capacity, the less
	// goodput survives.
	capacity := 100.0 / 3600 // 100 req/hour
	s := New(Config{Capacity: capacity, Seed: 3})
	tok, _ := s.Issue(1)
	var failed int
	const n = 2000 // one arrival per 3.6s: 1000/hour in the trailing window
	for i := 0; i < n; i++ {
		if s.Overloaded(tok, c0.Add(time.Duration(i)*3600*time.Millisecond)) {
			failed++
		}
	}
	// The second hour runs at the asymptote (0.99); the first ramps up to
	// it, so the overall fraction lands a little lower.
	frac := float64(failed) / n
	if frac < 0.85 || frac > 1.0 {
		t.Errorf("failure fraction at 10x capacity = %v, want ≈ 0.95", frac)
	}
	if st := s.Stats(); st.Overloaded != uint64(failed) || st.Failed != uint64(failed) {
		t.Errorf("stats = %+v, want Overloaded = Failed = %d", st, failed)
	}
}

func TestOverloadedWindowDrains(t *testing.T) {
	// After the storm passes out of the trailing window, the tier recovers.
	capacity := 100.0 / 3600
	s := New(Config{Capacity: capacity, Seed: 3})
	tok, _ := s.Issue(1)
	for i := 0; i < 2000; i++ {
		s.Overloaded(tok, c0.Add(time.Duration(i)*3600*time.Millisecond))
	}
	calm := c0.Add(2 * time.Hour).Add(CapacityWindow)
	if s.Overloaded(tok, calm) {
		t.Error("request failed after the storm drained out of the window")
	}
	if n := len(s.load); n != 1 {
		t.Errorf("load window holds %d requests after the storm drained, want only the calm one", n)
	}
}

func TestOverloadedUnknownTokenRegistersLoadOnly(t *testing.T) {
	// Unknown tokens count as arrivals (they hit the tier) but draw no
	// failure — validation rejects them anyway.
	s := New(Config{Capacity: 1.0 / 3600, Seed: 3})
	for i := 0; i < 500; i++ {
		if s.Overloaded("bogus", c0.Add(time.Duration(i)*time.Second)) {
			t.Fatal("unknown token drew an overload failure")
		}
	}
	if len(s.load) == 0 {
		t.Error("unknown tokens did not register load")
	}
}

func TestOverloadedDeterministic(t *testing.T) {
	// Two identically seeded services fed the same request sequence agree on
	// every decision — the serial-driver determinism the scenario suite
	// leans on. Token issuance is random, so drive each service with its own
	// token for the same user: the draw is keyed by (seed, user, now).
	run := func() []bool {
		s := New(Config{Capacity: 50.0 / 3600, Seed: 17})
		tok, _ := s.Issue(9)
		out := make([]bool, 3000)
		for i := range out {
			out[i] = s.Overloaded(tok, c0.Add(time.Duration(i)*4*time.Second))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergent overload decision at i=%d", i)
		}
	}
}
