package stats

// SplitmixSource adapts the repo's splitmix64 stream to math/rand.Source64.
// It carries 8 bytes of state instead of the ~5 KB lagged-Fibonacci state a
// math/rand.NewSource allocates, which is what makes per-entity sources
// affordable at million-entity populations: wrap one in rand.New and every
// Float64/ExpFloat64/Intn call site keeps working, only the stream differs.
type SplitmixSource struct {
	state uint64
}

// NewSplitmixSource returns a source seeded like math/rand.NewSource(seed):
// deterministic for a fixed seed, independent streams for distinct seeds.
func NewSplitmixSource(seed int64) *SplitmixSource {
	return &SplitmixSource{state: uint64(seed)}
}

// Uint64 advances the counter by the golden-ratio gamma and scrambles it —
// the canonical splitmix64 step.
func (s *SplitmixSource) Uint64() uint64 {
	s.state += Splitmix64Gamma
	return Splitmix64(s.state)
}

// Int63 implements rand.Source.
func (s *SplitmixSource) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed implements rand.Source.
func (s *SplitmixSource) Seed(seed int64) { s.state = uint64(seed) }
