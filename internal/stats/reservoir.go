package stats

import "math/rand"

// Reservoir keeps a uniform random sample of bounded size over an unbounded
// observation stream (Vitter's algorithm R). The trace collector uses one per
// RPC type so a month of spans yields faithful service-time distributions
// (Fig. 12) in constant memory.
type Reservoir struct {
	cap   int
	seen  uint64
	items []float64
	rng   *rand.Rand
}

// NewReservoir creates a reservoir holding at most cap samples, seeded for
// reproducibility.
func NewReservoir(cap int, seed int64) *Reservoir {
	if cap < 1 {
		cap = 1
	}
	return &Reservoir{cap: cap, items: make([]float64, 0, cap), rng: rand.New(rand.NewSource(seed))}
}

// Add observes one value.
func (r *Reservoir) Add(x float64) {
	r.seen++
	if len(r.items) < r.cap {
		r.items = append(r.items, x)
		return
	}
	if j := r.rng.Int63n(int64(r.seen)); j < int64(r.cap) {
		r.items[j] = x
	}
}

// Sample returns a copy of the retained sample.
func (r *Reservoir) Sample() []float64 {
	return append([]float64(nil), r.items...)
}
