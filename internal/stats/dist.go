package stats

// The random-variate samplers below are what the workload generator and
// latency models draw from. Every distribution here mirrors a fitted curve
// from the paper (lognormal bodies, Pareto tails, Zipf content popularity,
// diurnal session modulation); the generative models in internal/workload
// and internal/rpc compose them.

import (
	"math"
	"math/rand"
)

// Rand is the random stream the samplers draw from: the subset of
// *math/rand.Rand they use. *rand.Rand satisfies it; the workload
// generator's low-memory per-user streams provide a compact implementation.
type Rand interface {
	Float64() float64
	NormFloat64() float64
	// Intn is unused by the samplers themselves but part of the stream
	// contract so generator code can pick and sample through one value.
	Intn(n int) int
}

// Sampler draws one float64 variate from a distribution.
type Sampler interface {
	Sample(r Rand) float64
}

// Lognormal is a lognormal distribution parameterized by the underlying
// normal's mean and standard deviation.
type Lognormal struct {
	Mu    float64
	Sigma float64
}

// Sample implements Sampler.
func (l Lognormal) Sample(r Rand) float64 {
	return math.Exp(l.Mu + l.Sigma*r.NormFloat64())
}

// LognormalFromMedian builds a lognormal from its median and multiplicative
// spread (the geometric standard deviation): ~68% of the mass falls within
// [median/spread, median*spread]. This is the natural parameterization for
// the paper's size and timing CDFs, which span decades.
func LognormalFromMedian(median, spread float64) Lognormal {
	if median <= 0 {
		median = math.SmallestNonzeroFloat64
	}
	if spread < 1 {
		spread = 1
	}
	return Lognormal{Mu: math.Log(median), Sigma: math.Log(spread)}
}

// Pareto is a (type I) Pareto distribution with scale Xm and shape Alpha.
type Pareto struct {
	Xm    float64
	Alpha float64
}

// Sample implements Sampler via inverse-CDF.
func (p Pareto) Sample(r Rand) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return p.Xm / math.Pow(u, 1/p.Alpha)
}

// BoundedPareto truncates a Pareto at Cap by inverse-CDF on the bounded
// form, keeping heavy-tailed bodies from producing unphysical extremes.
type BoundedPareto struct {
	Xm    float64
	Cap   float64
	Alpha float64
}

// Sample implements Sampler.
func (p BoundedPareto) Sample(r Rand) float64 {
	if p.Cap <= p.Xm {
		return p.Xm
	}
	u := r.Float64()
	l := math.Pow(p.Xm, p.Alpha)
	h := math.Pow(p.Cap, p.Alpha)
	return math.Pow(-(u*h-u*l-h)/(h*l), -1/p.Alpha)
}

// ParetoTailed mixes a body distribution with a Pareto (or any) tail:
// with probability TailP the sample comes from Tail. This is the shape of
// most fitted curves in the paper — a lognormal bulk plus a power-law tail
// (e.g. Fig. 9's inter-operation gaps).
type ParetoTailed struct {
	Body  Sampler
	Tail  Sampler
	TailP float64
}

// Sample implements Sampler.
func (p ParetoTailed) Sample(r Rand) float64 {
	if r.Float64() < p.TailP {
		return p.Tail.Sample(r)
	}
	return p.Body.Sample(r)
}

// Uniform samples uniformly from [Lo, Hi).
type Uniform struct {
	Lo, Hi float64
}

// Sample implements Sampler.
func (u Uniform) Sample(r Rand) float64 {
	return u.Lo + (u.Hi-u.Lo)*r.Float64()
}

// Categorical draws an index with probability proportional to its weight.
type Categorical struct {
	cum []float64 // cumulative weights; cum[len-1] is the total
}

// NewCategorical builds a categorical distribution over the given weights.
// Non-positive weights are allowed and simply never drawn.
func NewCategorical(weights ...float64) *Categorical {
	c := &Categorical{cum: make([]float64, len(weights))}
	total := 0.0
	for i, w := range weights {
		if w > 0 {
			total += w
		}
		c.cum[i] = total
	}
	return c
}

// Draw samples an index in [0, len(weights)).
func (c *Categorical) Draw(r Rand) int {
	if len(c.cum) == 0 {
		return 0
	}
	total := c.cum[len(c.cum)-1]
	if total <= 0 {
		return 0
	}
	u := r.Float64() * total
	// Binary search for the first cumulative weight exceeding u.
	lo, hi := 0, len(c.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if c.cum[mid] > u {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Zipf draws ranks 1..N with P(rank) ∝ rank^-s, modelling the popularity
// skew of deduplicated content (§5.3: a few files account for very many
// duplicates). It owns its rand.Rand so callers get a reproducible stream.
type Zipf struct {
	z *rand.Zipf
}

// NewZipf builds a Zipf sampler over ranks 1..n with exponent s (> 1).
func NewZipf(r *rand.Rand, s float64, n uint64) *Zipf {
	if n < 1 {
		n = 1
	}
	if s <= 1 {
		s = 1.0001
	}
	return &Zipf{z: rand.NewZipf(r, s, 1, n-1)}
}

// Rank draws a 1-based rank.
func (z *Zipf) Rank() uint64 { return z.z.Uint64() + 1 }

// Diurnal modulates a rate over the week: a raised-cosine day shape peaking
// at PeakHour with peak/trough ratio Amplitude, normalized so the daily
// peak factor is 1.0, times a Monday boost and a weekend dip (§5.1: Monday
// is the busiest day; weekends are quieter).
type Diurnal struct {
	PeakHour    float64 // local hour of the daily activity peak
	Amplitude   float64 // peak/trough ratio of the day curve (≥ 1)
	MondayBoost float64 // multiplicative boost on Mondays
	WeekendDip  float64 // multiplicative dip on Saturday/Sunday
}

// Factor returns the rate multiplier at fractional hour h on weekday wd
// (time.Weekday numbering: 0 = Sunday). The maximum over the week is
// 1 + MondayBoost.
func (d Diurnal) Factor(h float64, wd int) float64 {
	amp := d.Amplitude
	if amp < 1 {
		amp = 1
	}
	trough := 1 / amp
	// shape ∈ [0, 1], peaking at PeakHour.
	shape := (1 + math.Cos(2*math.Pi*(h-d.PeakHour)/24)) / 2
	f := trough + (1-trough)*shape
	switch wd {
	case 1: // Monday
		f *= 1 + d.MondayBoost
	case 0, 6: // weekend
		f *= 1 - d.WeekendDip
	}
	return f
}
