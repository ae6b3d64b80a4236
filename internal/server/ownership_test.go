package server

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"u1/internal/blob"
	"u1/internal/client"
	"u1/internal/protocol"
)

// The payload path copies a byte once per hop it really crosses, so what
// keeps callers, sessions and the object store from sharing memory is the
// ownership rule, not defensive copies. These tests hold the rule on both
// transports; run them with -race -count=10.

// bothTransports yields a dialer for the in-process transport and one for
// real sockets through the gateway, against the same cluster.
func bothTransports(tc *TCPCluster) map[string]func(*testing.T) client.Transport {
	return map[string]func(*testing.T) client.Transport{
		"direct": func(*testing.T) client.Transport {
			return client.NewDirectTransport(tc.LeastLoaded, nil)
		},
		"tcp": func(t *testing.T) client.Transport {
			tr, err := client.DialTCP(tc.GateAddr.String())
			if err != nil {
				t.Fatal(err)
			}
			return tr
		},
	}
}

func connectOver(t *testing.T, tc *TCPCluster, dial func(*testing.T) client.Transport, user protocol.UserID) *client.Client {
	t.Helper()
	token, err := tc.Auth.Issue(user)
	if err != nil {
		t.Fatal(err)
	}
	cl := client.New(dial(t))
	if err := cl.Connect(token); err != nil {
		t.Fatalf("connect user %v: %v", user, err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// pattern is size bytes that no other (tag, size) pair produces, so every
// case uploads content the store has not seen.
func pattern(tag string, size int) []byte {
	seed := protocol.HashBytes([]byte(fmt.Sprintf("%s/%d", tag, size)))
	return bytes.Repeat(seed[:], size/len(seed)+1)[:size]
}

// twoParts is the smallest kind of content that takes the multipart path.
const twoParts = blob.PartSize + 4<<10

func fill(b []byte, v byte) {
	for i := range b {
		b[i] = v
	}
}

func TestCallerBuffersNeverAliasTheStore(t *testing.T) {
	tc, c := newTCPCluster(t)
	user := protocol.UserID(40)
	for name, dial := range bothTransports(tc) {
		for _, size := range []int{64 << 10, twoParts} { // inline and multipart
			user++
			t.Run(fmt.Sprintf("%s/%d", name, size), func(t *testing.T) {
				cl := connectOver(t, tc, dial, user)
				root, _ := cl.RootVolume()
				content := pattern(name, size)
				want := protocol.HashBytes(content)

				node, reused, err := cl.Upload(root, 0, "f.bin", content)
				if err != nil || reused {
					t.Fatalf("upload: reused=%v err=%v", reused, err)
				}
				fill(content, 0xEE) // the caller's buffer is the caller's again

				got, err := cl.Download(root, node.ID)
				if err != nil {
					t.Fatal(err)
				}
				if h := protocol.HashBytes(got); h != want {
					t.Fatalf("download after the upload buffer was overwritten hashes to %v, want %v", h, want)
				}
				fill(got, 0x11) // and so is the slice Download returned

				fresh, err := cl.Download(root, node.ID)
				if err != nil {
					t.Fatal(err)
				}
				if h := protocol.HashBytes(fresh); h != want {
					t.Fatalf("download after an earlier download was overwritten hashes to %v, want %v", h, want)
				}
				stored, err := c.Blob.GetObject(want.Hex())
				if err != nil || protocol.HashBytes(stored) != want {
					t.Fatalf("stored object no longer hashes to its key (err %v)", err)
				}
			})
		}
	}
}

func TestConcurrentDownloadsWhileReuploaded(t *testing.T) {
	tc, c := newTCPCluster(t)
	user := protocol.UserID(60)
	for name, dial := range bothTransports(tc) {
		user++
		t.Run(name, func(t *testing.T) {
			// Served part by part out of the one stored object.
			content := pattern("concurrent-"+name, twoParts)
			want := protocol.HashBytes(content)
			owner := connectOver(t, tc, dial, user)
			root, _ := owner.RootVolume()
			node, _, err := owner.Upload(root, 0, "shared.bin", content)
			if err != nil {
				t.Fatal(err)
			}

			var wg sync.WaitGroup
			for r := 0; r < 2; r++ {
				reader := connectOver(t, tc, dial, user)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 2; i++ {
						got, err := reader.Download(root, node.ID)
						if err != nil {
							t.Error(err)
							return
						}
						if h := protocol.HashBytes(got); h != want {
							t.Errorf("concurrent download hashes to %v, want %v", h, want)
						}
						fill(got, byte(i)) // readers own what they were given
					}
				}()
			}
			writer := connectOver(t, tc, dial, user)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 2; i++ {
					// A third session offers the same content again, and the
					// store has its object replaced under the readers.
					if _, _, err := writer.Upload(root, 0, fmt.Sprintf("again-%d.bin", i), content); err != nil {
						t.Error(err)
						return
					}
					if err := c.Blob.PutObject(want.Hex(), content); err != nil {
						t.Error(err)
					}
				}
			}()
			wg.Wait()
		})
	}
}

// status sends one raw request and returns the answer's status.
func status(t *testing.T, tr client.Transport, req *protocol.Request) (*protocol.Response, protocol.Status) {
	t.Helper()
	resp, err := tr.Do(req)
	if err != nil {
		t.Fatalf("%v: %v", req.Op, err)
	}
	return resp, resp.Status
}

// A peer that declares a size in PutContent cannot stream past it: the part
// that would cross the declared size is refused, the upload is gone, its
// multipart is aborted and the store holds not a byte more than before.
func TestOversizePartStreamRefused(t *testing.T) {
	tc, c := newTCPCluster(t)
	user := protocol.UserID(80)
	for name, dial := range bothTransports(tc) {
		user++
		t.Run(name, func(t *testing.T) {
			token, err := tc.Auth.Issue(user)
			if err != nil {
				t.Fatal(err)
			}
			tr := dial(t)
			defer tr.Close()
			if _, st := status(t, tr, &protocol.Request{Op: protocol.OpAuthenticate, Token: token}); st != protocol.StatusOK {
				t.Fatal(st)
			}
			vols, _ := status(t, tr, &protocol.Request{Op: protocol.OpListVolumes})
			var root protocol.VolumeID
			for _, v := range vols.Volumes {
				if v.Type == protocol.VolumeRoot {
					root = v.ID
				}
			}
			before := c.Blob.Stats()

			begin := func(file string, size uint64) (protocol.UploadID, protocol.Hash) {
				mk, st := status(t, tr, &protocol.Request{Op: protocol.OpMakeFile, Volume: root, Name: file})
				if st != protocol.StatusOK {
					t.Fatal(st)
				}
				h := protocol.HashBytes([]byte(name + file))
				put, st := status(t, tr, &protocol.Request{
					Op: protocol.OpPutContent, Volume: root, Node: mk.Node.ID, Name: file, Hash: h, Size: size,
				})
				if st != protocol.StatusOK || put.Reused {
					t.Fatalf("PutContent: %v reused=%v", st, put.Reused)
				}
				return put.Upload, h
			}
			part := make([]byte, blob.PartSize)

			// 12 MB declared, 5 MB non-final parts for as long as the server
			// takes them: the third would make 15 MB.
			up, big := begin("hostile.iso", 12<<20)
			for i := uint32(0); i < 2; i++ {
				if _, st := status(t, tr, &protocol.Request{Op: protocol.OpPutPart, Upload: up, Part: i, Data: part}); st != protocol.StatusOK {
					t.Fatalf("part %d within the declared size: %v", i, st)
				}
			}
			if _, st := status(t, tr, &protocol.Request{Op: protocol.OpPutPart, Upload: up, Part: 2, Data: part}); st != protocol.StatusBadRequest {
				t.Errorf("part past the declared size: %v, want %v", st, protocol.StatusBadRequest)
			}
			if _, st := status(t, tr, &protocol.Request{Op: protocol.OpPutPart, Upload: up, Part: 3, Data: part}); st != protocol.StatusNotFound {
				t.Errorf("part after the upload was dropped: %v, want %v", st, protocol.StatusNotFound)
			}

			// A content that fits one part is one final part of at most the
			// declared size.
			up, small := begin("hostile.txt", 100)
			if _, st := status(t, tr, &protocol.Request{Op: protocol.OpPutPart, Upload: up, Data: part[:200], Final: true}); st != protocol.StatusBadRequest {
				t.Errorf("final part past the declared size: %v, want %v", st, protocol.StatusBadRequest)
			}
			up, _ = begin("trickle.txt", 100)
			if _, st := status(t, tr, &protocol.Request{Op: protocol.OpPutPart, Upload: up, Data: part[:50]}); st != protocol.StatusBadRequest {
				t.Errorf("non-final part of a one-part content: %v, want %v", st, protocol.StatusBadRequest)
			}
			if _, st := status(t, tr, &protocol.Request{Op: protocol.OpPutPart, Upload: up, Part: 1, Data: part[:50], Final: true}); st != protocol.StatusNotFound {
				t.Errorf("part after the upload was dropped: %v, want %v", st, protocol.StatusNotFound)
			}

			after := c.Blob.Stats()
			if after.BytesHeld != before.BytesHeld || after.Objects != before.Objects {
				t.Errorf("store holds %d bytes in %d objects, held %d in %d before",
					after.BytesHeld, after.Objects, before.BytesHeld, before.Objects)
			}
			if got := after.MultipartAborted - before.MultipartAborted; got != 1 {
				t.Errorf("%d multipart uploads aborted, want 1", got)
			}
			for _, h := range []protocol.Hash{big, small} {
				if _, err := c.Blob.HeadObject(h.Hex()); err == nil {
					t.Errorf("refused content %v reached the store", h)
				}
			}
		})
	}
}
