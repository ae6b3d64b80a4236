//go:build race

package server

import (
	"bytes"
	"fmt"
	"testing"

	"u1/internal/client"
	"u1/internal/protocol"
	"u1/internal/wire"
)

// poisonByte is what the race build fills a released frame buffer with
// (wire's releasedByte).
const poisonByte = 0xDB

// TestReleasedListingReadsPoison is the race build's tripwire for listings: a
// copy of a GetDelta response that outlives the response's release reads the
// frame pool's poison where its entries were, not the entries, on both paths
// a listing takes to a client — the server's pooled copy of its log, handed
// over in process, and the frame a TCP client read and kept.
func TestReleasedListingReadsPoison(t *testing.T) {
	t.Run("direct", func(t *testing.T) {
		c := newDirectCluster(t)
		releasedListingReadsPoison(t, client.NewDirectTransport(c.LeastLoaded, nil), c.Auth.Issue)
	})
	t.Run("tcp", func(t *testing.T) {
		tc, _ := newTCPCluster(t)
		tr, err := client.DialTCP(tc.GateAddr.String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		releasedListingReadsPoison(t, tr, tc.Auth.Issue)
	})
}

func releasedListingReadsPoison(t *testing.T, tr client.Transport, issue func(protocol.UserID) (string, error)) {
	token, err := issue(5)
	if err != nil {
		t.Fatal(err)
	}
	cl := client.New(tr)
	if err := cl.Connect(token); err != nil {
		t.Fatal(err)
	}
	root, _ := cl.RootVolume()
	const dirs = 5
	for i := 0; i < dirs; i++ {
		if _, err := cl.Mkdir(root, 0, fmt.Sprintf("dir-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// The request Sync sends, asked of the transport directly so the test
	// holds the response.
	resp, err := tr.Do(&protocol.Request{Op: protocol.OpGetDelta, Volume: root})
	if err != nil || resp.Status != protocol.StatusOK || resp.Deltas.Len() != dirs {
		t.Fatalf("GetDelta: %v, %+v", err, resp)
	}
	kept := resp.Deltas
	listing := func() []byte {
		var w wire.Writer
		(&protocol.Response{Deltas: kept}).Encode(&w)
		return w.Bytes()
	}
	var empty wire.Writer
	(&protocol.Response{}).Encode(&empty)
	before := listing()
	if !bytes.Contains(before, []byte("dir-0")) {
		t.Fatalf("the live listing does not read its entries: %x", before)
	}
	protocol.ReleaseResponse(resp)

	after := listing()
	if bytes.Contains(after, []byte("dir-")) {
		t.Errorf("a released listing still reads its entries: %x", after)
	}
	// The count byte is the same for 0 and for the listing's entries, so
	// the entries took what the empty response lacks.
	entries := len(before) - len(empty.Bytes())
	if !bytes.Contains(after, bytes.Repeat([]byte{poisonByte}, entries)) {
		t.Errorf("a released listing reads %x, want %d bytes of %#x where its entries were", after, entries, poisonByte)
	}
	var e protocol.DeltaEntry
	c := kept.Cursor()
	if _, ok := c.Next(&e); ok {
		t.Errorf("a released listing decodes: %+v", e)
	}
}
