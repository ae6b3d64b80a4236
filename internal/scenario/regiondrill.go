package scenario

import (
	"errors"
	"fmt"
	"time"

	"u1/internal/client"
	"u1/internal/protocol"
	"u1/internal/server"
)

// regionalOutageDrill is the regional-outage entry's drill body: kill one
// region after real cross-region traffic, then hold the three outage
// invariants — writes refused at the edge while replica reads survive,
// failover from the replication logs alone (the dead owners crashed) makes
// the surviving replicas reproduce the dead owners' fingerprints bit-for-bit,
// and recovery rebuilds the dead region from its peer and serves fresh
// writes through the full client path. CI's chaos job runs it through
// `u1 chaos` (`-scenarios regional-outage` runs it alone).
func regionalOutageDrill(d *Drill) error {
	st := d.Cluster.Store
	if st.Regions() != 2 {
		return fmt.Errorf("store has %d regions, want 2", st.Regions())
	}

	// Pick one user owned by each region for the outage legs.
	var ownedBy [2]protocol.UserID
	for u := protocol.UserID(1); u <= protocol.UserID(d.Params.Users); u++ {
		if ownedBy[st.RegionOfUser(u)] == 0 {
			ownedBy[st.RegionOfUser(u)] = u
		}
	}
	if ownedBy[0] == 0 || ownedBy[1] == 0 {
		return fmt.Errorf("user population does not cover both regions: %v", ownedBy)
	}
	victim, survivor := ownedBy[1], ownedBy[0]

	// An acknowledged write through the full client path right before the
	// outage: with a nonzero replication delay and no further epoch barriers
	// no peer applies it before the region dies — exactly the record failover
	// must not lose.
	vol, _, err := drillUpload(d.Cluster, victim, d.Now, "pre-outage.txt")
	if err != nil {
		return fmt.Errorf("pre-outage upload as user %d: %w", victim, err)
	}

	// A cross-region grant so the survivor may read the victim's volume from
	// its local replica during the outage. Drain so the grant itself — and
	// everything before it — is replicated before the region dies.
	share, err := st.CreateShare(victim, vol, survivor, "drill", true)
	if err != nil {
		return fmt.Errorf("pre-outage share: %w", err)
	}
	if _, err := st.AcceptShare(survivor, share.ID); err != nil {
		return fmt.Errorf("accepting share: %w", err)
	}
	st.DrainReplication()

	// Capture the dead region's owner fingerprints at the moment of death.
	shards := st.NumShards()
	before := make([]string, shards)
	var region1Shards []int
	for i := 0; i < shards; i++ {
		before[i] = st.ShardFingerprint(i)
		if st.RegionOf(i) == 1 {
			region1Shards = append(region1Shards, i)
		}
	}

	// One more acknowledged write AFTER the drain: when the region dies it
	// exists only in the owner shard and its replication log's unsealed tail.
	if _, err := st.MakeFile(victim, vol, 0, "acked-last-instant.txt"); err != nil {
		return fmt.Errorf("last-instant write: %w", err)
	}
	for _, i := range region1Shards {
		before[i] = st.ShardFingerprint(i)
	}
	contents := *st.Contents()

	// --- Outage: region 1 dies ---

	st.RegionDown(1)

	if _, err := st.MakeFile(victim, vol, 0, "rejected.txt"); !errors.Is(err, protocol.ErrUnavailable) {
		return fmt.Errorf("write into dead region returned %v, want ErrUnavailable", err)
	}
	if _, _, err := drillUpload(d.Cluster, victim, d.Now.Add(time.Minute), "rejected-api.txt"); err == nil {
		return fmt.Errorf("API edge accepted a write into the dead region")
	} else if !errors.Is(err, protocol.ErrUnavailable) {
		return fmt.Errorf("API-path write into dead region failed for the wrong reason: %w", err)
	}
	if _, err := st.GetVolume(survivor, vol); err != nil {
		return fmt.Errorf("read of dead region's volume from surviving replica: %w", err)
	}
	d.Logf("region 1 down: writes refused at the edge, reads served from region 0 replicas")

	// The dead region's memory is gone. (Any earlier, the victim's login would
	// fail on its missing user row before the API edge's refusal could answer.)
	for _, i := range region1Shards {
		st.CrashShard(i)
	}

	// --- Failover: region 0 applies every record past its cursors ---

	st.FailoverRegion(0)
	for _, i := range region1Shards {
		if got := st.ReplicaFingerprint(0, i); got != before[i] {
			return fmt.Errorf("shard %d: acknowledged writes lost in failover — replica fingerprint %s, want %s", i, got, before[i])
		}
	}
	d.Logf("failover applied the logs: %d crashed dead-region shards reproduced bit-for-bit at region 0", len(region1Shards))

	// --- Recovery: region 1 rebuilds from its peer and serves again ---

	st.RegionRecover(1, 0)
	for _, i := range region1Shards {
		if got := st.ShardFingerprint(i); got != before[i] {
			return fmt.Errorf("shard %d: recovery diverged — fingerprint %s, want %s", i, got, before[i])
		}
	}
	if got := *st.Contents(); got != contents {
		return fmt.Errorf("content registry diverged across the outage: %+v after recovery, want %+v", got, contents)
	}
	if _, _, err := drillUpload(d.Cluster, victim, d.Now.Add(2*time.Minute), "post-recovery.txt"); err != nil {
		return fmt.Errorf("post-recovery upload as user %d: %w", victim, err)
	}
	d.Logf("recovered region reproduced owner fingerprints and the content registry, and accepted a fresh upload")
	return nil
}

// drillUpload pushes one upload for user through the full client → gateway →
// pipeline path at the given virtual instant and returns the user's root
// volume.
func drillUpload(cluster *server.Cluster, user protocol.UserID, now time.Time, name string) (protocol.VolumeID, protocol.NodeInfo, error) {
	token, err := cluster.Auth.Issue(user)
	if err != nil {
		return 0, protocol.NodeInfo{}, fmt.Errorf("issuing token: %w", err)
	}
	cli := client.New(client.NewDirectTransport(cluster.LeastLoaded, func() time.Time { return now }))
	if err := cli.Connect(token); err != nil {
		return 0, protocol.NodeInfo{}, fmt.Errorf("connect: %w", err)
	}
	vol, ok := cli.RootVolume()
	if !ok {
		return 0, protocol.NodeInfo{}, fmt.Errorf("user %d has no root volume", user)
	}
	h := protocol.HashBytes([]byte("regiondrill " + name))
	info, _, err := cli.UploadSized(vol, 0, name, h, 64<<10, 40<<10)
	return vol, info, err
}
