// Sharedfolder: the §3.2 synchronization workflow between two users — an
// owner shares a folder, the guest accepts, and mutations propagate by push
// notification across API servers through the broker, exactly the example
// the paper walks through (an Unlink noticed by the second client).
package main

import (
	"fmt"
	"log"
	"time"

	"u1/internal/client"
	"u1/internal/protocol"
	"u1/internal/server"
)

func main() {
	log.SetFlags(0)
	cluster := server.NewCluster(server.Config{InlineData: true, Seed: 7})
	tc, err := cluster.ListenAndServe("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer tc.Close()

	owner := connect(cluster, tc, 100, "owner")
	guest := connect(cluster, tc, 200, "guest")
	defer owner.Close()
	defer guest.Close()
	guest.AutoFetch = true

	// Owner builds a project folder and shares it.
	udf, err := owner.CreateUDF("~/Project")
	if err != nil {
		log.Fatal(err)
	}
	spec, _, err := owner.Upload(udf.ID, 0, "spec.doc", []byte("spec v1: measure everything"))
	if err != nil {
		log.Fatal(err)
	}
	share, err := owner.CreateShare(udf.ID, 200, "project", false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("owner shared volume %d (share %d)\n", udf.ID, share.ID)

	// The guest receives the offer by push, accepts, syncs, reads.
	p := waitPush(guest, protocol.PushShareOffered)
	fmt.Printf("guest got push: %v for volume %d\n", p.Event, p.Share.Volume)
	if _, err := guest.AcceptShare(p.Share.ID); err != nil {
		log.Fatal(err)
	}
	changed, err := guest.Sync(udf.ID)
	if err != nil {
		log.Fatal(err)
	}
	data, err := guest.Download(udf.ID, changed[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("guest synced %d files; read %q\n", len(changed), data)

	// The guest edits the shared file; the owner sees the change by push.
	if _, _, err := guest.Upload(udf.ID, 0, "spec.doc", []byte("spec v2: guest was here")); err != nil {
		log.Fatal(err)
	}
	waitPush(owner, protocol.PushVolumeChanged)
	if _, err := owner.Sync(udf.ID); err != nil {
		log.Fatal(err)
	}
	back, err := owner.Download(udf.ID, spec.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("owner sees the guest's edit: %q\n", back)

	// The paper's walkthrough ends with an Unlink propagating: delete on
	// one side, push on the other, and the blob garbage-collected from S3.
	if err := owner.Unlink(udf.ID, spec.ID); err != nil {
		log.Fatal(err)
	}
	waitPush(guest, protocol.PushVolumeChanged)
	guest.Sync(udf.ID) //nolint:errcheck
	nodes := 0
	guest.EachNode(udf.ID, func(protocol.NodeID, client.Node) { nodes++ })
	fmt.Printf("after owner's unlink, guest mirror holds %d nodes; blob store: %+v\n",
		nodes, cluster.Blob.Stats())
}

func connect(cluster *server.Cluster, tc *server.TCPCluster, id protocol.UserID, name string) *client.Client {
	token, err := cluster.Auth.Issue(id)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := client.DialTCP(tc.GateAddr.String())
	if err != nil {
		log.Fatal(err)
	}
	cli := client.New(tr)
	if err := cli.Connect(token); err != nil {
		log.Fatalf("%s connect: %v", name, err)
	}
	return cli
}

func waitPush(cli *client.Client, want protocol.PushEvent) *protocol.Push {
	deadline := time.After(5 * time.Second)
	for {
		select {
		case p := <-cli.Pushes():
			cli.HandlePush(p) //nolint:errcheck
			if p.Event == want {
				return p
			}
		case <-deadline:
			log.Fatalf("no %v push within 5s", want)
		}
	}
}
