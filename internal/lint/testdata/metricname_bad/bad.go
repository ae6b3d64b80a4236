// Package namebad mints metric names outside the documented grammar — each
// one would silently create a series no reader ever looks up.
package namebad

import "u1/internal/metrics"

// Register mints off-grammar names: an unknown family, a truncated series, a
// typo'd leaf, and a folded concatenation with a misspelled segment.
func Register(reg *metrics.Registry) {
	reg.Counter("metadata.bogus")    // want: metricname: "metadata.bogus" does not match
	reg.Gauge("api.sessions")        // want: metricname: "api.sessions" does not match
	reg.Histogram("blob.put.second") // want: metricname: "blob.put.second" does not match
	name := "meta.shard." + "0" + ".readz"
	reg.Counter(name) // want: metricname: "meta.shard.0.readz" does not match
}
