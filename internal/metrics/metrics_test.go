package metrics

import (
	"encoding/json"
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const goroutines, per = 16, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*per {
		t.Errorf("counter = %d, want %d", got, goroutines*per)
	}
}

func TestGaugeConcurrent(t *testing.T) {
	var g Gauge
	const goroutines, per = 8, 5000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				g.Inc()
				g.Dec()
			}
			g.Inc()
			g.Inc()
			g.Inc()
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 3*goroutines {
		t.Errorf("gauge = %d, want %d", got, 3*goroutines)
	}
}

// TestHistogramConcurrent drives many goroutines into one histogram and
// verifies no observation is lost and aggregates are exact (run under -race
// in CI).
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	const goroutines, per = 16, 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Observe(1e-3 * (1 + r.Float64()))
			}
		}(int64(g))
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*per {
		t.Errorf("count = %d, want %d", s.Count, goroutines*per)
	}
	if s.Min < 1e-3 || s.Max > 2e-3 {
		t.Errorf("extremes [%g, %g] outside observed range", s.Min, s.Max)
	}
	if s.Mean < 1.4e-3 || s.Mean > 1.6e-3 {
		t.Errorf("mean = %g, want ≈1.5e-3", s.Mean)
	}
	wantSum := s.Mean * float64(s.Count)
	if math.Abs(s.Sum-wantSum)/wantSum > 1e-9 {
		t.Errorf("sum = %g inconsistent with mean*count = %g", s.Sum, wantSum)
	}
}

// TestSnapshotConsistency cuts snapshots while writers are running: bucket
// totals must always equal the derived Count, counts must be monotone across
// snapshots, and quantiles must be ordered.
func TestSnapshotConsistency(t *testing.T) {
	h := NewHistogram()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
					h.Observe(r.ExpFloat64() * 1e-2)
				}
			}
		}(int64(g))
	}
	var prev uint64
	for i := 0; i < 50; i++ {
		s := h.Snapshot()
		var bucketTotal uint64
		for _, n := range s.buckets {
			bucketTotal += n
		}
		if bucketTotal != s.Count {
			t.Fatalf("snapshot %d: bucket total %d != count %d", i, bucketTotal, s.Count)
		}
		if s.Count < prev {
			t.Fatalf("snapshot %d: count went backwards (%d < %d)", i, s.Count, prev)
		}
		prev = s.Count
		if s.Count > 0 && !(s.P50 <= s.P95 && s.P95 <= s.P99) {
			t.Fatalf("snapshot %d: unordered quantiles p50=%g p95=%g p99=%g", i, s.P50, s.P95, s.P99)
		}
	}
	close(stop)
	wg.Wait()
	final := h.Snapshot()
	if final.Count < prev {
		t.Errorf("final count %d below last live snapshot %d", final.Count, prev)
	}
}

// TestQuantileAccuracy checks the estimator against distributions with
// closed-form quantiles. Log-spaced buckets with a 2^(1/8) ratio bound the
// relative error near ±4.5%; assert within 10% to stay robust to sampling
// noise.
func TestQuantileAccuracy(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	const n = 200000

	cases := []struct {
		name     string
		sample   func() float64
		quantile func(q float64) float64
	}{
		{
			name:     "uniform(1,2)",
			sample:   func() float64 { return 1 + r.Float64() },
			quantile: func(q float64) float64 { return 1 + q },
		},
		{
			name:     "exponential(rate=100)",
			sample:   func() float64 { return r.ExpFloat64() / 100 },
			quantile: func(q float64) float64 { return -math.Log(1-q) / 100 },
		},
		{
			name:   "lognormal(median=3ms,gsd=2)",
			sample: func() float64 { return math.Exp(math.Log(3e-3) + math.Log(2)*r.NormFloat64()) },
			quantile: func(q float64) float64 {
				// Φ⁻¹ via Moro's inversion is overkill; use known z-scores.
				z := map[float64]float64{0.5: 0, 0.95: 1.6449, 0.99: 2.3263}[q]
				return math.Exp(math.Log(3e-3) + math.Log(2)*z)
			},
		},
	}
	for _, tc := range cases {
		h := NewHistogram()
		for i := 0; i < n; i++ {
			h.Observe(tc.sample())
		}
		s := h.Snapshot()
		for _, q := range []float64{0.5, 0.95, 0.99} {
			got, want := s.quantile(q), tc.quantile(q)
			if relErr := math.Abs(got-want) / want; relErr > 0.10 {
				t.Errorf("%s: q%.0f = %g, want %g (rel err %.1f%%)", tc.name, q*100, got, want, 100*relErr)
			}
		}
	}
}

func TestHistogramExtremeValues(t *testing.T) {
	h := NewHistogram()
	h.Observe(0)     // below the first bucket boundary
	h.Observe(1e300) // beyond the last bucket
	h.Observe(math.NaN())
	h.Observe(math.Inf(1))
	s := h.Snapshot()
	if s.Count != 2 {
		t.Errorf("count = %d, want 2 (NaN/Inf dropped)", s.Count)
	}
	if s.Min != 0 || s.Max != 1e300 {
		t.Errorf("extremes [%g, %g], want [0, 1e300]", s.Min, s.Max)
	}
}

func TestRegistrySnapshotJSON(t *testing.T) {
	r := NewRegistry()
	up := APIOp("Upload")
	r.Counter(up.Count).Add(7)
	r.Counter(up.Errors).Inc()
	r.Gauge(APISessionsActive).Set(3)
	h := r.Histogram(up.Seconds)
	for i := 0; i < 100; i++ {
		h.Observe(0.010)
	}

	// Get-or-create must return the same instance.
	if r.Counter(up.Count) != r.Counter(up.Count) {
		t.Fatal("counter identity not stable")
	}

	buf, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf, &snap); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if snap.Counter(up.Count) != 7 {
		t.Errorf("counter = %d, want 7", snap.Counter(up.Count))
	}
	if snap.Gauge(APISessionsActive) != 3 {
		t.Errorf("gauge = %d, want 3", snap.Gauge(APISessionsActive))
	}
	hs := snap.Histogram(up.Seconds)
	if hs.Count != 100 {
		t.Errorf("histogram count = %d, want 100", hs.Count)
	}
	if hs.P50 < 0.009 || hs.P50 > 0.011 {
		t.Errorf("p50 = %g, want ≈0.010", hs.P50)
	}
}

func TestRegistryConcurrentLookup(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter(Name{"shared"}).Inc()
				r.Histogram(Name{"hist"}).Observe(1)
				r.Gauge(Name{"gauge"}).Set(int64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter(Name{"shared"}).Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := r.Histogram(Name{"hist"}).Snapshot().Count; got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}

func TestNilRegistry(t *testing.T) {
	var r *Registry
	r.Counter(Name{"x"}).Inc()
	r.Gauge(Name{"y"}).Set(1)
	r.Histogram(Name{"z"}).Observe(1)
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Error("nil registry snapshot should be empty")
	}
}

func TestOpStatsOf(t *testing.T) {
	r := NewRegistry()
	up := APIOp("Upload")
	h := r.Histogram(up.Seconds)
	for i := 0; i < 1000; i++ {
		h.Observe(0.012)
	}
	r.Counter(up.Count).Add(1000)
	r.Counter(up.Errors).Add(25)
	r.Histogram(RPCClassSeconds("read")).Observe(0.003)

	ops := OpStatsOf(r.Snapshot(), 2.0)
	if len(ops) != 1 {
		t.Fatalf("ops = %v, want only Upload (non-API series must not fold in)", ops)
	}
	st := ops["Upload"]
	if st.Count != 1000 || st.Errors != 25 {
		t.Errorf("Upload count/errors = %d/%d, want 1000/25", st.Count, st.Errors)
	}
	if st.OpsPerSec != 500 {
		t.Errorf("ops/sec = %g, want 500", st.OpsPerSec)
	}
	if st.P50Ms < 11 || st.P50Ms > 13 {
		t.Errorf("p50 = %gms, want ≈12ms", st.P50Ms)
	}
	if st := OpStatsOf(r.Snapshot(), 0)["Upload"]; st.OpsPerSec != 0 {
		t.Errorf("ops/sec without a wall clock = %g, want 0", st.OpsPerSec)
	}
}

func BenchmarkCounterParallel(b *testing.B) {
	var c Counter
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.004)
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	h := NewHistogram()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(0.004)
		}
	})
}

// TestBucketOfMatchesLog holds the table lookup to the formula that defines
// the buckets: every boundary and the four floats on either side of it, the
// extremes, and a million seeded log-uniform values reaching past both ends.
func TestBucketOfMatchesLog(t *testing.T) {
	check := func(v float64) {
		t.Helper()
		if got, want := bucketOf(v), bucketOfLog(v); got != want {
			t.Fatalf("bucketOf(%v) = %d, the log formula says %d", v, got, want)
		}
	}
	for i := 1; i < numBuckets; i++ {
		b := math.Float64bits(bucketLow[i])
		for d := uint64(0); d <= 4; d++ {
			check(math.Float64frombits(b + d))
			check(math.Float64frombits(b - d))
		}
		if bucketOfLog(bucketLow[i]) != i || bucketOfLog(math.Nextafter(bucketLow[i], 0)) != i-1 {
			t.Fatalf("boundary %d at %v is not where the formula steps", i, bucketLow[i])
		}
	}
	for _, v := range []float64{-1, 0, 5e-324, bucketMin, math.Nextafter(bucketMin, 1), 1, 2, 1e9, 1e300, math.MaxFloat64} {
		check(v)
	}
	r := rand.New(rand.NewSource(8))
	lo, hi := math.Log(1e-12), math.Log(1e12)
	for i := 0; i < 1_000_000; i++ {
		check(math.Exp(lo + (hi-lo)*r.Float64()))
	}
}
