package workload

import (
	"math"

	"u1/internal/stats"
)

// urng is one user's random stream: 8 bytes of splitmix64 state and the
// handful of draws the workload uses, implemented directly. A *rand.Rand
// plus its source would cost ~64 bytes of heap per user even over a
// splitmix source (and math/rand's own source ~5 KB), which is real memory
// at a million users. The stream is a function of the user's seed alone.
//
// urng satisfies stats.Rand, so profile samplers draw from it directly.
type urng struct {
	src stats.SplitmixSource
}

// newURng builds a user stream for seed, seeded like stats.NewSplitmixSource.
func newURng(seed int64) *urng {
	r := new(urng)
	r.src.Seed(seed)
	return r
}

// Float64 returns a uniform draw in [0, 1).
func (r *urng) Float64() float64 {
	return float64(r.src.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform draw in [0, n). It panics if n <= 0, matching
// math/rand. It reduces by modulo: the bias is O(n/2^64), far below anything
// a workload statistic can observe.
func (r *urng) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	return int(r.src.Uint64() % uint64(n))
}

// ExpFloat64 returns an Exp(1) draw by the exact inverse-CDF transform.
func (r *urng) ExpFloat64() float64 {
	return -math.Log(1 - r.Float64())
}

// NormFloat64 returns a N(0, 1) draw by Box–Muller, which is exact, at the
// cost of a log and a cosine per draw.
func (r *urng) NormFloat64() float64 {
	u := 1 - r.Float64() // (0, 1]: keeps the log finite
	v := r.Float64()
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
}
