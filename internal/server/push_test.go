package server

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"u1/internal/client"
	"u1/internal/metrics"
	"u1/internal/protocol"
	"u1/internal/wire"
)

// TestTCPSlowConsumer: one session that stops reading cannot cost anyone
// else a push. User 40 authenticates on a raw socket with a 4 KB receive
// buffer and never reads again; user 40's second device reads its pushes.
// User 41 then offers user 40 one share after another, each share's push
// carrying a 16 KB name, until the server's send buffer to the raw socket is
// full and a push has been discarded. The publisher must finish within
// publishBound: a push never waits for a slow reader. Then 12 users with two
// devices each change one file each, and all 12 pushes must arrive within
// 2 s. The raw connection ends up closed, notify.dropped is above 0, and
// the reading device still works. Run it under -race.
func TestTCPSlowConsumer(t *testing.T) {
	const (
		slow, publisher = protocol.UserID(40), protocol.UserID(41)
		maxShares       = 2000
		nameBytes       = 16 << 10
		publishBound    = 20 * time.Second
		pushBound       = 2 * time.Second
	)
	tc, c := newTCPCluster(t)
	dropped := c.Metrics.Counter(metrics.NotifyDropped)

	token, err := tc.Auth.Issue(slow)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := net.Dial("tcp", tc.GateAddr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { raw.Close() })
	if err := raw.(*net.TCPConn).SetReadBuffer(4 << 10); err != nil {
		t.Fatal(err)
	}
	login := (&protocol.Request{ID: 1, Op: protocol.OpAuthenticate, Token: token}).Marshal()
	if err := wire.WriteFrame(raw, protocol.FrameRequest, login); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	if typ, payload, err := wire.ReadFrame(raw); err != nil || typ != protocol.FrameResponse {
		t.Fatalf("reading the login answer: type %d, %v", typ, err)
	} else if resp := new(protocol.Response); resp.Decode(payload) != nil || resp.Status != protocol.StatusOK {
		t.Fatalf("login answered %+v", resp)
	}

	reader := dialClient(t, tc, slow)
	offerer := dialClient(t, tc, publisher)
	published := make(chan error, 1)
	go func() {
		name := strings.Repeat("n", nameBytes)
		for i := 0; i < maxShares && dropped.Value() == 0; i++ {
			udf, err := offerer.CreateUDF(fmt.Sprintf("/offer-%d", i))
			if err == nil {
				_, err = offerer.CreateShare(udf.ID, slow, name, true)
			}
			if err != nil {
				published <- fmt.Errorf("offer %d: %w", i, err)
				return
			}
		}
		published <- nil
	}()
	select {
	case err := <-published:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(publishBound):
		t.Fatalf("the publisher was still committing after %v: a push blocked it", publishBound)
	}
	if dropped.Value() == 0 {
		t.Fatalf("%d share offers discarded no push to the connection that does not read", maxShares)
	}

	receivers := make([]*client.Client, 12)
	for i := range receivers {
		user := protocol.UserID(100 + i)
		changer := dialClient(t, tc, user)
		receivers[i] = dialClient(t, tc, user)
		root, _ := changer.RootVolume()
		if _, err := changer.Mkdir(root, 0, "changed"); err != nil {
			t.Fatalf("user %d: %v", user, err)
		}
	}
	timer := time.NewTimer(pushBound)
	defer timer.Stop()
	var lost int
	expired := false
	for _, r := range receivers {
		if !expired {
			select {
			case <-r.Pushes():
				continue
			case <-timer.C:
				expired = true
			}
		}
		select {
		case <-r.Pushes():
		default:
			lost++
		}
	}
	if lost > 0 {
		t.Errorf("%d of %d pushes did not arrive within %v", lost, len(receivers), pushBound)
	}

	// Every session but the raw one's is live: the server closed it. (Its
	// client would take tens of seconds to read the frames the server's
	// socket still holds through a 4 KB window.)
	if want := 2 + 2*len(receivers); c.sessions() != want {
		t.Errorf("%d sessions live, want %d: the connection that stopped reading was not closed", c.sessions(), want)
	}
	if _, err := reader.ListVolumes(); err != nil {
		t.Errorf("the device that reads its pushes lost its connection: %v", err)
	}
}

// sessions counts the cluster's live sessions.
func (c *Cluster) sessions() int {
	var n int
	for _, s := range c.Servers {
		n += s.SessionCount()
	}
	return n
}
