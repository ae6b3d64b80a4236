//go:build race

package protocol

const poisonReleased = true

// scrub overwrites released delta entries with a sentinel. The race jobs run
// every suite that syncs a mirror and checks it against the server, so a
// listing read after its response was released lands an entry with this id
// and name in a mirror, where those checks see it.
func scrub(d []DeltaEntry) {
	for i := range d {
		d[i] = DeltaEntry{Node: NodeInfo{ID: ^NodeID(0), Name: "released"}}
	}
}
