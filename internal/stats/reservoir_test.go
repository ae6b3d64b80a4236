package stats

import (
	"math"
	"testing"
)

func TestReservoirUnderCapacity(t *testing.T) {
	r := NewReservoir(10, 1)
	for i := 0; i < 5; i++ {
		r.Add(float64(i))
	}
	if r.seen != 5 || len(r.Sample()) != 5 {
		t.Errorf("seen=%d sample=%d", r.seen, len(r.Sample()))
	}
}

func TestReservoirBounded(t *testing.T) {
	r := NewReservoir(100, 2)
	for i := 0; i < 100000; i++ {
		r.Add(float64(i))
	}
	if r.seen != 100000 {
		t.Errorf("seen = %d", r.seen)
	}
	if len(r.Sample()) != 100 {
		t.Errorf("sample size = %d", len(r.Sample()))
	}
}

func TestReservoirUnbiased(t *testing.T) {
	// The retained sample's mean must track the stream mean: feed 0..N-1
	// and expect mean ≈ (N-1)/2 within a loose tolerance.
	const n = 50000
	r := NewReservoir(2000, 3)
	for i := 0; i < n; i++ {
		r.Add(float64(i))
	}
	m := Mean(r.Sample())
	want := float64(n-1) / 2
	if math.Abs(m-want) > want*0.05 {
		t.Errorf("sample mean = %v, want ≈ %v", m, want)
	}
}

func TestReservoirSampleIsCopy(t *testing.T) {
	r := NewReservoir(4, 4)
	r.Add(1)
	s := r.Sample()
	s[0] = 99
	if r.Sample()[0] == 99 {
		t.Error("Sample must return a copy")
	}
}

func TestReservoirMinCapacity(t *testing.T) {
	r := NewReservoir(0, 5)
	r.Add(1)
	r.Add(2)
	if len(r.Sample()) != 1 {
		t.Errorf("zero-cap reservoir should clamp to 1, got %d", len(r.Sample()))
	}
}
