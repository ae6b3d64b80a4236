package scenario

import (
	"fmt"
	"time"

	"u1/internal/vfs"
)

// shardCrashDrill is the shard-crash entry's drill body, a power cut: it
// fingerprints and kills every metadata shard (in-memory state gone, journal
// handle abandoned without a final sync), crashes the disk (every byte and
// name never synced is gone), recovers each shard from its snapshot plus
// journal, and requires the fingerprints it had before: under per-op fsync
// every acknowledged mutation must replay bit-for-bit, and the content
// registry, which fingerprints leave out, must come back as it was. The
// recovered tier must then accept a fresh upload through the full client path.
func shardCrashDrill(d *Drill, disk *vfs.MemFS) error {
	st := d.Cluster.Store
	contents := *st.Contents()
	before := make([]string, st.NumShards())
	for i := range before {
		before[i] = st.ShardFingerprint(i)
		st.CrashShard(i)
	}
	disk.Crash()
	for i, want := range before {
		if err := st.RecoverShard(i); err != nil {
			return fmt.Errorf("shard %d: recovery failed: %w", i, err)
		}
		if got := st.ShardFingerprint(i); got != want {
			return fmt.Errorf("shard %d: acknowledged writes lost — fingerprint %s after recovery, want %s", i, got, want)
		}
	}
	if got := *st.Contents(); got != contents {
		return fmt.Errorf("content registry diverged across the power cut: %+v after recovery, want %+v", got, contents)
	}
	d.Logf("cut the power under all %d shards and recovered them: fingerprints and content registry identical", len(before))
	if _, _, err := drillUpload(d.Cluster, 1, d.Now.Add(time.Minute), "post-crash.txt"); err != nil {
		return fmt.Errorf("post-recovery upload: %w", err)
	}
	d.Logf("recovered tier accepted a fresh upload through the full pipeline")
	return nil
}
