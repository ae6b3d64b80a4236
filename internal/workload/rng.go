package workload

import (
	"math"
	"math/rand"

	"u1/internal/stats"
)

// urng is one user's random stream. In the default configuration it wraps
// the ~5 KB math/rand lagged-Fibonacci generator whose streams the committed
// goldens pin. Under LowMem the wrapper holds an 8-byte splitmix64 state and
// implements the handful of draws the workload uses directly — a *rand.Rand
// plus its source costs ~64 bytes of heap per user even over a splitmix
// source, which is real memory at a million users. The LowMem stream differs
// from the default one (Config.LowMem documents that trade); determinism for
// a fixed (Seed, Workers, LowMem) still holds.
//
// urng satisfies stats.Rand, so profile samplers draw from either mode
// transparently.
type urng struct {
	std *rand.Rand // default configuration; nil under LowMem
	s   uint64     // splitmix64 state when std == nil
}

// newURng builds a user stream for seed: math/rand by default, splitmix64
// under low-memory mode. Seeding mirrors stats.NewSplitmixSource.
func newURng(seed int64, lowMem bool) *urng {
	if lowMem {
		return &urng{s: uint64(seed)}
	}
	return &urng{std: rand.New(rand.NewSource(seed))}
}

// next is the canonical splitmix64 step (LowMem mode only).
func (r *urng) next() uint64 {
	r.s += stats.Splitmix64Gamma
	return stats.Splitmix64(r.s)
}

// Float64 returns a uniform draw in [0, 1).
func (r *urng) Float64() float64 {
	if r.std != nil {
		return r.std.Float64()
	}
	return float64(r.next()>>11) / (1 << 53)
}

// Intn returns a uniform draw in [0, n). It panics if n <= 0, matching
// math/rand. The LowMem path reduces by modulo: the bias is O(n/2^64),
// far below anything a workload statistic can observe.
func (r *urng) Intn(n int) int {
	if r.std != nil {
		return r.std.Intn(n)
	}
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	return int(r.next() % uint64(n))
}

// ExpFloat64 returns an Exp(1) draw. The LowMem path uses the exact
// inverse-CDF transform instead of math/rand's ziggurat.
func (r *urng) ExpFloat64() float64 {
	if r.std != nil {
		return r.std.ExpFloat64()
	}
	return -math.Log(1 - r.Float64())
}

// NormFloat64 returns a N(0, 1) draw. The LowMem path uses Box–Muller,
// which is exact, at the cost of a log and a cosine per draw.
func (r *urng) NormFloat64() float64 {
	if r.std != nil {
		return r.std.NormFloat64()
	}
	u := 1 - r.Float64() // (0, 1]: keeps the log finite
	v := r.Float64()
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
}
