//go:build !race

package wire

// poison readies a released frame buffer for the pool; only race-detector
// builds overwrite it.
func poison([]byte) {}
