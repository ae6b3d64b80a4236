package stats

// Splitmix64Gamma is the splitmix64 stream increment (the golden-ratio
// constant): advancing a state by it and mixing yields the next draw.
const Splitmix64Gamma = 0x9E3779B97F4A7C15

// Splitmix64 is the splitmix64 output function: a bijective scramble of the
// raw counter state. It is the one shared definition behind every lock-free
// deterministic stream in the repo — the rpc tier's per-proc samplers, the
// sharded engine's user→shard hash, the gateway's shard sampling, the
// workload's per-shard seeds and the auth service's failure draws — so the
// constants cannot drift between subsystems.
func Splitmix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
