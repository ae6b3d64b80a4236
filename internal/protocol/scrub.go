//go:build !race

package protocol

// poisonReleased reports whether released delta entries carry a sentinel
// instead of zeros; only race-detector builds poison.
const poisonReleased = false

// scrub zeroes released delta entries, so no Name stays reachable.
func scrub(d []DeltaEntry) { clear(d) }
