package protocol

import (
	"bytes"
	"encoding/hex"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"u1/internal/wire"
)

// The wire format is pinned by two whole frames (header included), taken from
// the encoder as it stood before frames were written in place: any change to
// a field's order, width or prefix shows up here as a byte diff.
const (
	goldenRequestFrame = "0000004401" +
		"070e03746f6b03ac020205662e6a706714ec30adc79e734900430e4174cf0a36c2d0c42272" +
		"808040e80763020d7061796c6f61642d627974657301050901040180e59a77"
	goldenResponseFrame = "0000009502" +
		"07000b0c0103010a7e2f5069637475726573080c0104030c0904706963730101" +
		"ac0203020005662e6a706714ec30adc79e734900430e4174cf0a36c2d0c42272808080060801" +
		"ac0203020005662e6a706714ec30adc79e734900430e4174cf0a36c2d0c42272808080060801" +
		"080100630314ec30adc79e734900430e4174cf0a36c2d0c42272808080060a706172742d6279746573"
)

func goldenRequest() *Request {
	return &Request{
		ID: 7, Op: OpPutPart, Token: "tok", Volume: 3, Node: 300, Parent: 2,
		Name: "f.jpg", Hash: HashBytes([]byte("golden")), Size: 1 << 20,
		CompressedSize: 1000, Upload: 99, Part: 2, Data: []byte("payload-bytes"),
		Final: true, FromGen: 5, ToUser: 9, ReadOnly: true, Share: 4,
		Attempt: 1, Delay: 250 * time.Millisecond,
	}
}

func goldenResponse() *Response {
	h := HashBytes([]byte("golden"))
	node := NodeInfo{ID: 300, Volume: 3, Parent: 2, Kind: KindFile, Name: "f.jpg", Hash: h, Size: 12 << 20, Generation: 8}
	return &Response{
		ID: 7, Status: StatusOK, Session: 11, User: 12,
		Volumes:    []VolumeInfo{{ID: 3, Type: VolumeUDF, Path: "~/Pictures", Generation: 8, Owner: 12}},
		Shares:     []ShareInfo{{ID: 4, Volume: 3, SharedBy: 12, SharedTo: 9, Name: "pics", ReadOnly: true, Accepted: true}},
		Node:       node,
		Deltas:     []DeltaEntry{{Node: node, Deleted: true}},
		Generation: 8, Reused: true, Upload: 99, Parts: 3, Hash: h, Size: 12 << 20,
		Data: []byte("part-bytes"),
	}
}

func mustHex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// recConn records every Write it receives. Only Write is implemented; the
// embedded nil net.Conn makes it a net.Conn for the frame writer.
type recConn struct {
	net.Conn
	writes [][]byte
}

func (c *recConn) Write(p []byte) (int, error) {
	c.writes = append(c.writes, p) // p itself, so aliasing is observable
	return len(p), nil
}

func TestGoldenWireFormat(t *testing.T) {
	req, resp := goldenRequest(), goldenResponse()
	cases := []struct {
		name    string
		msgType byte
		msg     wire.Message
		data    []byte
		frame   []byte
		decode  func([]byte) (any, error)
	}{
		{"request", FrameRequest, req, req.Data, mustHex(t, goldenRequestFrame),
			func(b []byte) (any, error) { return UnmarshalRequest(b) }},
		{"response", FrameResponse, resp, resp.Data, mustHex(t, goldenResponseFrame),
			func(b []byte) (any, error) { p := &Response{}; return p, p.Decode(b) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body := tc.frame[5:]
			if got := encode(tc.msg); !bytes.Equal(got, body) {
				t.Errorf("encoded %x\nwant    %x", got, body)
			}
			var raw bytes.Buffer
			if err := wire.WriteFrame(&raw, tc.msgType, encode(tc.msg)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw.Bytes(), tc.frame) {
				t.Errorf("WriteFrame(encoded) = %x\nwant                %x", raw.Bytes(), tc.frame)
			}

			conn := &recConn{}
			if err := wire.NewFrameWriter(conn).WriteMessage(tc.msgType, tc.msg); err != nil {
				t.Fatal(err)
			}
			if got := bytes.Join(conn.writes, nil); !bytes.Equal(got, tc.frame) {
				t.Errorf("frame writer wrote %x\nwant               %x", got, tc.frame)
			}
			// Off a TCP connection the vectored write degrades to one Write
			// per segment, which shows that Data went out from where it
			// lies: one of the segments is the message's own slice.
			aliased := false
			for _, w := range conn.writes {
				aliased = aliased || (len(w) == len(tc.data) && &w[0] == &tc.data[0])
			}
			if !aliased {
				t.Error("Data was copied before it was written")
			}

			got, err := tc.decode(body)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.msg) {
				t.Errorf("decoded %+v\nwant    %+v", got, tc.msg)
			}
		})
	}
}

// A frame without Data is header and fields in one buffer and exactly one
// Write, on any kind of connection.
func TestDatalessFrameIsOneWrite(t *testing.T) {
	for _, msg := range []struct {
		msgType byte
		m       wire.Message
	}{
		{FrameRequest, sampleRequestNoData()},
		{FrameResponse, &Response{ID: 9, Status: StatusNotFound}},
		{FramePush, &Push{Event: PushVolumeChanged, Volume: 3, Generation: 9}},
	} {
		conn := &recConn{}
		fw := wire.NewFrameWriter(conn)
		// Twice through one writer: the reused encode buffer must not leak
		// one frame into the next.
		for i := 0; i < 2; i++ {
			if err := fw.WriteMessage(msg.msgType, msg.m); err != nil {
				t.Fatal(err)
			}
		}
		if len(conn.writes) != 2 {
			t.Fatalf("type %d: %d writes for 2 frames", msg.msgType, len(conn.writes))
		}
		var want bytes.Buffer
		if err := wire.WriteFrame(&want, msg.msgType, encode(msg.m)); err != nil {
			t.Fatal(err)
		}
		// The writer reuses its buffer, so only the last write is intact.
		if got := conn.writes[1]; !bytes.Equal(got, want.Bytes()) {
			t.Errorf("type %d: frame %x, want %x", msg.msgType, got, want.Bytes())
		}
	}
}

func sampleRequestNoData() *Request {
	q := goldenRequest()
	q.Data = nil
	return q
}

// countingTCP counts plain Write calls on a real TCP connection. It embeds
// the concrete *net.TCPConn, so net.Buffers still finds the connection's
// writev path; a vectored write therefore bypasses Write altogether.
type countingTCP struct {
	*net.TCPConn
	writes int
}

func (c *countingTCP) Write(p []byte) (int, error) {
	c.writes++
	return c.TCPConn.Write(p)
}

// On a TCP connection a frame is one system call's worth of submission: one
// Write without Data, one writev (and no Write at all) with it, and the peer
// reads exactly the golden bytes either way.
func TestFrameIsOneWriteOrWritevOnTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dialed, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer dialed.Close()
	peer, err := ln.Accept() // the listen backlog holds the connection
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	conn := &countingTCP{TCPConn: dialed.(*net.TCPConn)}
	fw := wire.NewFrameWriter(conn)
	steps := []struct {
		name    string
		msgType byte
		msg     wire.Message
		frame   []byte
		writes  int
	}{
		{"request with Data", FrameRequest, goldenRequest(), mustHex(t, goldenRequestFrame), 0},
		{"response with Data", FrameResponse, goldenResponse(), mustHex(t, goldenResponseFrame), 0},
		{"request without Data", FrameRequest, sampleRequestNoData(), nil, 1},
	}
	for _, st := range steps {
		conn.writes = 0
		if err := fw.WriteMessage(st.msgType, st.msg); err != nil {
			t.Fatal(err)
		}
		if conn.writes != st.writes {
			t.Errorf("%s: %d Write calls, want %d", st.name, conn.writes, st.writes)
		}
		if st.frame == nil {
			continue
		}
		got := make([]byte, len(st.frame))
		if _, err := io.ReadFull(peer, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, st.frame) {
			t.Errorf("%s: peer read %x\nwant %x", st.name, got, st.frame)
		}
	}
}

// Unmarshal results alias their input (the ownership rule in the package
// comment): Data is a window into the decoded buffer, not a copy of it.
func TestUnmarshalAliasesData(t *testing.T) {
	body := mustHex(t, goldenRequestFrame)[5:]
	q, err := UnmarshalRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(body, q.Data)
	if at < 0 || &q.Data[0] != &body[at] {
		t.Error("request Data was copied out of the frame buffer")
	}
	body = mustHex(t, goldenResponseFrame)[5:]
	p := &Response{}
	if err := p.Decode(body); err != nil {
		t.Fatal(err)
	}
	at = bytes.Index(body, p.Data)
	if at < 0 || &p.Data[0] != &body[at] {
		t.Error("response Data was copied out of the frame buffer")
	}
}

// The decoders are lenient (a bool is any byte, a hash any length, trailing
// bytes are ignored), so encode(decode(x)) is x only for canonical x. What
// must hold for every accepted input is that decoding lands on a fixed point:
// the decoded message re-encodes to bytes that decode to the same message and
// encode to the same bytes again.
func FuzzUnmarshalRequest(f *testing.F) {
	f.Add(mustHex(f, goldenRequestFrame)[5:])
	f.Add(sampleRequestNoData().Marshal())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		q, err := UnmarshalRequest(in)
		// A slot that held another frame decodes to what a fresh one does,
		// and refuses what a fresh one refuses.
		dirty := sampleRequest()
		if dirtyErr := dirty.Decode(in); (dirtyErr == nil) != (err == nil) {
			t.Fatalf("fresh decode: %v, decode over a used slot: %v", err, dirtyErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(dirty, q) {
			t.Fatalf("a used slot kept part of its last frame:\n%+v\nfresh decode:\n%+v", dirty, q)
		}
		out := q.Marshal()
		q2, err := UnmarshalRequest(out)
		if err != nil {
			t.Fatalf("re-decoding %x: %v", out, err)
		}
		if !reflect.DeepEqual(q, q2) {
			t.Fatalf("decode→encode→decode changed the request:\n%+v\n%+v", q, q2)
		}
		if again := q2.Marshal(); !bytes.Equal(again, out) {
			t.Fatalf("encoding is not stable: %x then %x", out, again)
		}
	})
}

func FuzzUnmarshalResponse(f *testing.F) {
	f.Add(mustHex(f, goldenResponseFrame)[5:])
	f.Add(encode(&Response{ID: 9, Status: StatusNotFound}))
	// A list length far above maxRepeated must be refused outright.
	f.Add([]byte{1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, in []byte) {
		p := &Response{}
		err := p.Decode(in)
		// A slot that held another frame decodes to what a fresh one does,
		// and refuses what a fresh one refuses.
		dirty := sampleResponse()
		if dirtyErr := dirty.Decode(in); (dirtyErr == nil) != (err == nil) {
			t.Fatalf("fresh decode: %v, decode over a used slot: %v", err, dirtyErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(dirty, p) {
			t.Fatalf("a used slot kept part of its last frame:\n%+v\nfresh decode:\n%+v", dirty, p)
		}
		// Every decoded element consumed at least a byte of input: a length
		// prefix cannot make the lists larger than the message.
		if n := len(p.Volumes) + len(p.Shares) + len(p.Deltas); n > len(in) {
			t.Fatalf("%d list entries decoded from %d bytes", n, len(in))
		}
		out := encode(p)
		p2 := &Response{}
		if err := p2.Decode(out); err != nil {
			t.Fatalf("re-decoding %x: %v", out, err)
		}
		if !reflect.DeepEqual(p, p2) {
			t.Fatalf("decode→encode→decode changed the response:\n%+v\n%+v", p, p2)
		}
		if again := encode(p2); !bytes.Equal(again, out) {
			t.Fatalf("encoding is not stable: %x then %x", out, again)
		}
	})
}
