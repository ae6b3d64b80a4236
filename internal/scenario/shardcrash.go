package scenario

import (
	"fmt"
	"time"
)

// shardCrashDrill is the shard-crash entry's drill body: fingerprint every
// metadata shard, then kill each in turn the way a process crash would —
// in-memory state gone, journal handle abandoned without a final sync —
// recover it from its snapshot plus journal, and require the fingerprint it
// had before the crash. Under per-op fsync every acknowledged mutation must
// replay bit-for-bit. The recovered tier must then accept a fresh upload
// through the full client path. The torn-tail case (async fsync, a damaged
// final frame) is TestRecoverTornJournalTail in internal/metadata.
func shardCrashDrill(d *Drill) error {
	st := d.Cluster.Store
	before := make([]string, st.NumShards())
	for i := range before {
		before[i] = st.ShardFingerprint(i)
	}
	for i, want := range before {
		st.CrashShard(i)
		if err := st.RecoverShard(i); err != nil {
			return fmt.Errorf("shard %d: recovery failed: %w", i, err)
		}
		if got := st.ShardFingerprint(i); got != want {
			return fmt.Errorf("shard %d: acknowledged writes lost — fingerprint %s after recovery, want %s", i, got, want)
		}
	}
	d.Logf("crashed and recovered all %d shards: fingerprints identical", len(before))
	if _, _, err := drillUpload(d.Cluster, 1, d.Now.Add(time.Minute), "post-crash.txt"); err != nil {
		return fmt.Errorf("post-recovery upload: %w", err)
	}
	d.Logf("recovered tier accepted a fresh upload through the full pipeline")
	return nil
}
