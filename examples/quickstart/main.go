// Quickstart: boot the full U1 back-end in-process, connect a desktop
// client over real TCP through the gateway, and run the basic workflow —
// mkdir, upload (with the SHA-1 dedup offer), download, sync.
package main

import (
	"bytes"
	"fmt"
	"log"

	"u1/internal/client"
	"u1/internal/protocol"
	"u1/internal/server"
)

func main() {
	log.SetFlags(0)

	// A cluster with the paper's deployment shape: 6 API machines, 10
	// metadata shards, S3-like blob store, auth, notifications, gateway.
	cluster := server.NewCluster(server.Config{InlineData: true, Seed: 42})
	tc, err := cluster.ListenAndServe("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer tc.Close()
	fmt.Println("back-end up at", tc.GateAddr)

	// Register a user and connect a desktop client.
	token, err := cluster.Auth.Issue(1)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := client.DialTCP(tc.GateAddr.String())
	if err != nil {
		log.Fatal(err)
	}
	cli := client.New(tr)
	if err := cli.Connect(token); err != nil {
		log.Fatal(err)
	}
	defer cli.Close()
	root, _ := cli.RootVolume()
	fmt.Printf("connected as user %v, root volume %d\n", cli.User(), root)

	// Create a folder and upload a file into it.
	docs, err := cli.Mkdir(root, 0, "docs")
	if err != nil {
		log.Fatal(err)
	}
	content := bytes.Repeat([]byte("personal cloud measurement "), 512)
	node, reused, err := cli.Upload(root, docs.ID, "paper-notes.txt", content)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uploaded %d bytes as node %d (dedup hit: %v)\n", len(content), node.ID, reused)

	// Uploading identical content again never transfers bytes: the server
	// recognizes the SHA-1 (file-based cross-user deduplication, §3.3).
	_, reused, err = cli.Upload(root, docs.ID, "copy-of-notes.txt", content)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("identical upload deduplicated: %v\n", reused)

	// Download and verify.
	got, err := cli.Download(root, node.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("downloaded %d bytes, intact: %v\n", len(got), bytes.Equal(got, content))

	// Synchronize the mirror and show the state.
	if _, err := cli.Sync(root); err != nil {
		log.Fatal(err)
	}
	nodes := 0
	cli.EachNode(root, func(protocol.NodeID, client.Node) { nodes++ })
	fmt.Printf("mirror holds %d nodes\n", nodes)
	fmt.Printf("client stats: %+v\n", cli.Stats())
	fmt.Printf("blob store: %+v\n", cluster.Blob.Stats())
}
