// Crashdrill: the durable metadata tier's recovery gate. The drill boots a
// cluster with the per-shard WAL on, drives real traffic through the full
// pipeline, then kills every metadata shard in turn the way a process crash
// would — in-memory state gone, journal handle closed without a final sync —
// and recovers each from its snapshot + journal. The acceptance invariant is
// zero accepted-write loss: under per-op fsync, every mutation the API
// acknowledged must be reproduced bit-for-bit by replay, verified by
// comparing deterministic shard fingerprints before the crash and after
// recovery. A second leg crashes a shard under the async policy, corrupts
// the journal tail (the torn write a real power cut leaves), and checks the
// store recovers the intact prefix and keeps serving.
//
// CI runs this as the recovery job; any violated invariant exits non-zero.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"u1/internal/auth"
	"u1/internal/client"
	"u1/internal/metadata"
	"u1/internal/metrics"
	"u1/internal/protocol"
	"u1/internal/server"
	"u1/internal/wal"
	"u1/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("crashdrill: ")

	users := flag.Int("users", 120, "user population size")
	days := flag.Int("days", 2, "trace window in days")
	seed := flag.Int64("seed", 7, "random seed")
	dir := flag.String("dir", "", "durability root (empty = fresh temp dir)")
	flag.Parse()

	root := *dir
	if root == "" {
		tmp, err := os.MkdirTemp("", "crashdrill-")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(tmp)
		root = tmp
	}

	// --- Leg 1: crash every shard under per-op fsync; nothing may be lost ---

	cluster, err := server.OpenCluster(server.Config{
		Seed: *seed, AuthFailureRate: auth.PaperFailureRate,
		Durability:  filepath.Join(root, "durable"),
		FsyncPolicy: wal.FsyncPerOp,
	})
	if err != nil {
		log.Fatalf("opening durable cluster: %v", err)
	}
	totals := workload.New(workload.Config{
		Users: *users, Days: *days, Seed: *seed,
		Attacks: []workload.Attack{},
	}, cluster).Run()
	c := cluster.Metrics.Snapshot().Counters
	fmt.Printf("drove %d sessions (%d uploads, %d deletes) through the durable tier: %d journaled ops, %d WAL appends\n",
		totals.Sessions, totals.Uploads, totals.Deletes,
		c[metrics.WALPrefix+"journaled"], c[metrics.WALPrefix+"appends"])

	store := cluster.Store
	shards := store.NumShards()
	before := make([]string, shards)
	for i := 0; i < shards; i++ {
		before[i] = store.ShardFingerprint(i)
	}
	for i := 0; i < shards; i++ {
		store.CrashShard(i)
		if err := store.RecoverShard(i); err != nil {
			log.Fatalf("shard %d: recovery failed: %v", i, err)
		}
		if got := store.ShardFingerprint(i); got != before[i] {
			log.Fatalf("shard %d: accepted writes lost — fingerprint %s after recovery, want %s", i, got, before[i])
		}
	}
	rc := cluster.Metrics.Snapshot().Counters
	fmt.Printf("crashed and recovered all %d shards: %d records replayed, fingerprints identical — zero accepted-write loss\n",
		shards, rc[metrics.WALPrefix+"replayed"])

	// The recovered tier must still serve: push one more upload through the
	// full client → gateway → pipeline path.
	token, err := cluster.Auth.Issue(1)
	if err != nil {
		log.Fatalf("post-recovery issue: %v", err)
	}
	now := workload.PaperStart.Add(time.Duration(*days) * 24 * time.Hour)
	cli := client.New(client.NewDirectTransport(cluster.LeastLoaded, func() time.Time { return now }))
	if err := cli.Connect(token); err != nil {
		log.Fatalf("post-recovery connect: %v", err)
	}
	vol, ok := cli.RootVolume()
	if !ok {
		log.Fatal("post-recovery root volume missing")
	}
	h := protocol.HashBytes([]byte("crashdrill post-recovery content"))
	if _, _, err := cli.UploadSized(vol, 0, "post-recovery.txt", h, 64<<10, 40<<10); err != nil {
		log.Fatalf("post-recovery upload: %v", err)
	}
	fmt.Println("recovered tier accepted a fresh upload through the full pipeline")
	if err := cluster.Close(); err != nil {
		log.Fatalf("closing durable cluster: %v", err)
	}

	// --- Leg 2: torn journal tail under the async policy ---
	//
	// Async acked writes ahead of the disk, so a crash may tear the last
	// frame; recovery must drop the torn suffix, keep the intact prefix, and
	// leave the store serving.
	tornDir := filepath.Join(root, "torn")
	tstore, err := metadata.Open(metadata.Config{
		Shards: 1, Durability: tornDir, FsyncPolicy: wal.FsyncAsync,
	})
	if err != nil {
		log.Fatalf("opening torn-leg store: %v", err)
	}
	troot, err := tstore.CreateUser(1)
	if err != nil {
		log.Fatal(err)
	}
	const tornFiles = 12
	for i := 0; i < tornFiles; i++ {
		if _, err := tstore.MakeFile(1, troot.ID, 0, fmt.Sprintf("f%d", i)); err != nil {
			log.Fatal(err)
		}
	}
	tstore.CrashShard(0)
	if err := wal.CorruptTail(tstore.ShardWALDir(0)); err != nil {
		log.Fatalf("corrupting journal tail: %v", err)
	}
	if err := tstore.RecoverShard(0); err != nil {
		log.Fatalf("torn-tail recovery failed: %v", err)
	}
	nodes, _, err := tstore.GetFromScratch(1, troot.ID)
	if err != nil {
		log.Fatalf("torn-tail listing: %v", err)
	}
	// Root + the intact prefix: exactly one journaled file is torn off.
	if want := 1 + tornFiles - 1; len(nodes) != want {
		log.Fatalf("torn-tail recovery kept %d nodes, want %d (intact prefix only)", len(nodes), want)
	}
	if _, err := tstore.MakeFile(1, troot.ID, 0, "after-torn"); err != nil {
		log.Fatalf("torn-tail store stopped serving: %v", err)
	}
	fmt.Printf("torn-tail leg: dropped the torn frame, recovered %d of %d files, store still serving\n",
		tornFiles-1, tornFiles)
	if err := tstore.Close(); err != nil {
		log.Fatalf("closing torn-leg store: %v", err)
	}

	fmt.Println("crashdrill PASS")
}
