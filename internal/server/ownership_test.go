package server

import (
	"bytes"
	"crypto/sha1"
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

// rawSession authenticates a bare transport as user and returns it with the
// user's root volume, for tests that speak the protocol request by request.
func rawSession(t *testing.T, tc *TCPCluster, dial func(*testing.T) client.Transport, user protocol.UserID) (client.Transport, protocol.VolumeID) {
	t.Helper()
	token, err := tc.Auth.Issue(user)
	if err != nil {
		t.Fatal(err)
	}
	tr := dial(t)
	t.Cleanup(func() { tr.Close() })
	if _, st := status(t, tr, &protocol.Request{Op: protocol.OpAuthenticate, Token: token}); st != protocol.StatusOK {
		t.Fatal(st)
	}
	vols, _ := status(t, tr, &protocol.Request{Op: protocol.OpListVolumes})
	for _, v := range vols.Volumes {
		if v.Type == protocol.VolumeRoot {
			return tr, v.ID
		}
	}
	t.Fatal("no root volume")
	return nil, 0
}

// A peer that declares a size in PutContent must send exactly that: the part
// that would cross the declared size, a final part that falls short of it and
// a non-final part of any size but blob.PartSize are refused, the upload is
// gone, its multipart is aborted and the store holds not a byte more than
// before.
func TestOversizePartStreamRefused(t *testing.T) {
	tc, c := newTCPCluster(t)
	user := protocol.UserID(80)
	for name, dial := range bothTransports(tc) {
		user++
		t.Run(name, func(t *testing.T) {
			tr, root := rawSession(t, tc, dial, user)
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
			refused := []protocol.Hash{big}

			// Every other broken stream is refused at its first part.
			for _, bad := range []struct {
				file  string
				size  uint64
				data  []byte
				final bool
			}{
				{"hostile.txt", 100, part[:200], true},         // a final part past the declared size
				{"trickle.txt", 100, part[:50], false},         // a non-final part of a one-part content
				{"short.txt", 1000, part[:10], true},           // a final part short of the declared size
				{"short.iso", 12 << 20, part, true},            // a multipart upload ended early
				{"trickle.iso", 12 << 20, part[:4<<10], false}, // a non-final part short of blob.PartSize
			} {
				up, h := begin(bad.file, bad.size)
				if _, st := status(t, tr, &protocol.Request{Op: protocol.OpPutPart, Upload: up, Data: bad.data, Final: bad.final}); st != protocol.StatusBadRequest {
					t.Errorf("%s: %v, want %v", bad.file, st, protocol.StatusBadRequest)
				}
				if _, st := status(t, tr, &protocol.Request{Op: protocol.OpPutPart, Upload: up, Part: 1, Data: part[:50], Final: true}); st != protocol.StatusNotFound {
					t.Errorf("%s: part after the upload was dropped: %v, want %v", bad.file, st, protocol.StatusNotFound)
				}
				refused = append(refused, h)
			}

			after := c.Blob.Stats()
			if after.BytesHeld != before.BytesHeld || after.Objects != before.Objects {
				t.Errorf("store holds %d bytes in %d objects, held %d in %d before",
					after.BytesHeld, after.Objects, before.BytesHeld, before.Objects)
			}
			if got := after.MultipartAborted - before.MultipartAborted; got != 3 { // the three .iso uploads
				t.Errorf("%d multipart uploads aborted, want 3", got)
			}
			for _, h := range refused {
				if _, err := c.Blob.HeadHash(h); err == nil {
					t.Errorf("refused content %v reached the store", h)
				}
			}
		})
	}
}

// Downloads are served part by part out of the stored object, with the part
// boundaries uploads have: 5 MB, 5 MB and the rest. That holds for a content
// uploaded in parts and for one put whole with PutObject, the path the
// benchmark preseeds through.
func TestDownloadPartBoundaries(t *testing.T) {
	tc, c := newTCPCluster(t)
	user := protocol.UserID(100)
	const size = 12 << 20
	for name, dial := range bothTransports(tc) {
		user++
		t.Run(name, func(t *testing.T) {
			cl := connectOver(t, tc, dial, user)
			root, _ := cl.RootVolume()
			uploaded := pattern("uploaded-"+name, size)
			up, reused, err := cl.Upload(root, 0, "uploaded.bin", uploaded)
			if err != nil || reused {
				t.Fatalf("upload: reused=%v err=%v", reused, err)
			}
			preseeded := pattern("preseeded-"+name, size)
			h := protocol.HashBytes(preseeded)
			if err := c.Blob.PutObject(h.Hex(), preseeded); err != nil {
				t.Fatal(err)
			}
			pre, err := c.Store.MakeFile(user, root, 0, "preseeded.bin")
			if err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := c.Store.MakeContent(user, root, pre.ID, h, size); err != nil {
				t.Fatal(err)
			}

			tr, _ := rawSession(t, tc, dial, user)
			for _, f := range []struct {
				node    protocol.NodeID
				content []byte
			}{{up.ID, uploaded}, {pre.ID, preseeded}} {
				resp, st := status(t, tr, &protocol.Request{Op: protocol.OpGetContent, Volume: root, Node: f.node})
				if st != protocol.StatusOK || resp.Parts != 3 || len(resp.Data) != 0 {
					t.Fatalf("GetContent of node %d: %v, %d parts, %d bytes inline; want 3 parts", f.node, st, resp.Parts, len(resp.Data))
				}
				sum := sha1.New()
				for i, want := range []int{blob.PartSize, blob.PartSize, size - 2*blob.PartSize} {
					part, st := status(t, tr, &protocol.Request{Op: protocol.OpGetPart, Volume: root, Node: f.node, Part: uint32(i)})
					if st != protocol.StatusOK || len(part.Data) != want {
						t.Fatalf("part %d of node %d: %v, %d bytes, want %d", i, f.node, st, len(part.Data), want)
					}
					sum.Write(part.Data)
				}
				if got, want := sum.Sum(nil), protocol.HashBytes(f.content); !bytes.Equal(got, want[:]) {
					t.Errorf("node %d downloads to SHA-1 %x, want %v", f.node, got, want)
				}
			}
		})
	}
}
