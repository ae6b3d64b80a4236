//go:build race

package wire

// releasedByte fills every frame buffer given back under the race detector.
const releasedByte = 0xDB

// poison overwrites a released frame buffer before it is pooled. The race
// jobs run every suite that uploads over TCP and downloads what it stored,
// so a decoded Data kept past ReleaseFrame reads back as a run of this byte
// and fails its content check.
func poison(b []byte) {
	for i := range b {
		b[i] = releasedByte
	}
}
