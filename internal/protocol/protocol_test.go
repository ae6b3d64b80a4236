package protocol

import (
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestHashRoundTrip(t *testing.T) {
	h := HashBytes([]byte("ubuntu one"))
	if h.IsZero() {
		t.Fatal("hash of content should not be zero")
	}
	parsed, err := hex.DecodeString(h.Hex())
	if err != nil {
		t.Fatal(err)
	}
	if Hash(parsed) != h {
		t.Error("hex round trip mismatch")
	}
	if h.String() != "sha1:"+h.Hex() {
		t.Error("String format")
	}
}

func TestZeroHash(t *testing.T) {
	var h Hash
	if !h.IsZero() {
		t.Error("zero hash should report IsZero")
	}
}

func TestOpNames(t *testing.T) {
	for _, op := range Ops() {
		name := op.String()
		if name == "" {
			t.Fatalf("op %d has no name", op)
		}
		back, err := ParseOp(name)
		if err != nil || back != op {
			t.Errorf("ParseOp(%q) = %v, %v", name, back, err)
		}
	}
	if Op(200).String() != "op(200)" {
		t.Error("unknown op formatting")
	}
	if _, err := ParseOp("nope"); err == nil {
		t.Error("unknown name should fail")
	}
}

func TestOpClassifications(t *testing.T) {
	if !OpPutContent.IsData() || !OpGetContent.IsData() {
		t.Error("transfers are data ops")
	}
	if OpListVolumes.IsData() {
		t.Error("ListVolumes is metadata")
	}
	if !OpUnlink.IsDataManagement() || !OpMakeDir.IsDataManagement() {
		t.Error("mutations are data management")
	}
	if OpPing.IsDataManagement() {
		t.Error("ping is not data management")
	}
	if !OpAuthenticate.IsSessionManagement() || !OpPing.IsSessionManagement() {
		t.Error("session management misclassified")
	}
	if OpUnlink.IsSessionManagement() {
		t.Error("unlink is not session management")
	}
}

func TestRPCNamesAndClasses(t *testing.T) {
	for _, r := range RPCs() {
		name := r.String()
		if name == "" {
			t.Fatalf("rpc %d has no name", r)
		}
		back, err := ParseRPC(name)
		if err != nil || back != r {
			t.Errorf("ParseRPC(%q) = %v, %v", name, back, err)
		}
		if g := r.FigureGroup(); g != "fs" && g != "upload" && g != "other" {
			t.Errorf("rpc %v group %q", r, g)
		}
	}
	if RPCDeleteVolume.Class() != ClassCascade || RPCGetFromScratch.Class() != ClassCascade {
		t.Error("cascade RPCs misclassified")
	}
	if RPCMakeFile.Class() != ClassWrite || RPCMakeContent.Class() != ClassWrite {
		t.Error("write RPCs misclassified")
	}
	if RPCListVolumes.Class() != ClassRead || RPCGetNode.Class() != ClassRead {
		t.Error("read RPCs misclassified")
	}
	for _, c := range []RPCClass{ClassRead, ClassWrite, ClassCascade} {
		if c.String() == "" {
			t.Error("class should render")
		}
	}
	if _, err := ParseRPC("dal.nope"); err == nil {
		t.Error("unknown RPC name should fail")
	}
}

func TestStatusRoundTrip(t *testing.T) {
	errs := []error{nil, ErrAuthFailed, ErrNotFound, ErrExists, ErrPermission,
		ErrBadRequest, ErrConflict, ErrQuota, ErrUnavailable, ErrCancelled,
		ErrOverloaded}
	for _, e := range errs {
		s := StatusOf(e)
		back := s.Err()
		if e == nil {
			if back != nil {
				t.Errorf("nil error round trip gave %v", back)
			}
			continue
		}
		if !errors.Is(back, e) {
			t.Errorf("status %v round trip gave %v, want %v", s, back, e)
		}
	}
	// Unknown errors collapse to unavailable.
	if StatusOf(errors.New("db on fire")) != StatusUnavailable {
		t.Error("unknown errors should map to unavailable")
	}
	if StatusOK.String() == "" || Status(99).String() == "" {
		t.Error("status strings")
	}
}

// TestStatusesCoversVocabulary pins the Statuses() enumeration: every
// defined status renders a real name and round-trips through Err/StatusOf,
// so classification tables built over Statuses() really cover everything.
func TestStatusesCoversVocabulary(t *testing.T) {
	all := Statuses()
	if all[0] != StatusOK || all[len(all)-1] != StatusOverloaded {
		t.Errorf("statuses = %v, want StatusOK..StatusOverloaded", all)
	}
	for _, s := range all {
		if s.String() == fmt.Sprintf("status(%d)", uint8(s)) {
			t.Errorf("status %d has no name", s)
		}
		if s == StatusOK {
			continue
		}
		if back := StatusOf(s.Err()); back != s {
			t.Errorf("status %v round trips to %v", s, back)
		}
	}
}

func sampleRequest() *Request {
	return &Request{
		ID:             42,
		Op:             OpPutContent,
		Token:          "oauth-token-1",
		Volume:         3,
		Node:           99,
		Parent:         7,
		Name:           "song.mp3",
		Hash:           HashBytes([]byte("content")),
		Size:           4 << 20,
		CompressedSize: 3 << 20,
		Upload:         11,
		Part:           2,
		Data:           []byte{1, 2, 3, 4},
		Final:          true,
		FromGen:        123,
		ToUser:         55,
		ReadOnly:       true,
		Share:          8,
		Attempt:        2,
		Delay:          1500 * time.Millisecond, // accumulated retry backoff
	}
}

func TestRequestRoundTrip(t *testing.T) {
	q := sampleRequest()
	got, err := UnmarshalRequest(q.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(q, got) {
		t.Errorf("request round trip:\n got %+v\nwant %+v", got, q)
	}
}

func TestRequestEmptyRoundTrip(t *testing.T) {
	q := &Request{Op: OpPing}
	got, err := UnmarshalRequest(q.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(q, got) {
		t.Errorf("empty request round trip:\n got %+v\nwant %+v", got, q)
	}
}

func TestRequestTruncated(t *testing.T) {
	buf := sampleRequest().Marshal()
	for cut := 0; cut < len(buf)-1; cut += 3 {
		if _, err := UnmarshalRequest(buf[:cut]); err == nil {
			// Truncation in the trailing boolean region can decode by
			// accident only if all remaining fields were consumed; the
			// encoder writes fixed field count so any cut must error.
			t.Errorf("cut=%d decoded successfully", cut)
		}
	}
}

func sampleResponse() *Response {
	return &Response{
		ID:      42,
		Status:  StatusOK,
		Session: 1001,
		User:    55,
		Volumes: []VolumeInfo{
			{ID: 0, Type: VolumeRoot, Path: "~/Ubuntu One", Generation: 10, Owner: 55},
			{ID: 4, Type: VolumeUDF, Path: "~/Music", Generation: 3, Owner: 55},
		},
		Shares: []ShareInfo{
			{ID: 1, Volume: 4, SharedBy: 55, SharedTo: 77, Name: "proj", ReadOnly: true, Accepted: true},
		},
		Node: NodeInfo{ID: 9, Volume: 4, Parent: 2, Kind: KindFile, Name: "a.txt",
			Hash: HashBytes([]byte("x")), Size: 17, Generation: 5},
		Deltas: listOf(
			DeltaEntry{Node: NodeInfo{ID: 10, Volume: 4, Kind: KindDir, Name: "d"}, Deleted: false},
			DeltaEntry{Node: NodeInfo{ID: 11, Volume: 4, Kind: KindFile, Name: "gone"}, Deleted: true},
		),
		Generation: 99,
		Reused:     true,
		Upload:     5,
		Parts:      3,
		Hash:       HashBytes([]byte("y")),
		Size:       123456,
		Data:       []byte("part-data"),
	}
}

func TestResponseRoundTrip(t *testing.T) {
	p := sampleResponse()
	got := &Response{}
	if err := got.Decode(encode(p)); err != nil {
		t.Fatal(err)
	}
	if !sameResponse(t, p, got) {
		t.Errorf("response round trip:\n got %+v\nwant %+v", got, p)
	}
}

func TestResponseEmptyRoundTrip(t *testing.T) {
	p := &Response{ID: 7, Status: StatusNotFound}
	got := &Response{}
	if err := got.Decode(encode(p)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Errorf("empty response round trip:\n got %+v\nwant %+v", got, p)
	}
}

func TestPushRoundTrip(t *testing.T) {
	n := &Push{
		Event:      PushShareOffered,
		Volume:     3,
		Generation: 12,
		Share:      ShareInfo{ID: 2, Volume: 3, SharedBy: 1, SharedTo: 2, Name: "s"},
	}
	got, err := UnmarshalPush(encode(n))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(n, got) {
		t.Errorf("push round trip:\n got %+v\nwant %+v", got, n)
	}
	for _, e := range []PushEvent{PushVolumeChanged, PushShareOffered, PushShareDeleted, PushEvent(9)} {
		if e.String() == "" {
			t.Error("push event should render")
		}
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	garbage := [][]byte{nil, {0xFF}, {1, 2, 3}}
	for _, g := range garbage {
		if err := new(Response).Decode(g); err == nil {
			t.Errorf("Response.Decode(%v) should fail", g)
		}
		if _, err := UnmarshalPush(g); err == nil {
			t.Errorf("UnmarshalPush(%v) should fail", g)
		}
	}
	if _, err := UnmarshalRequest(nil); err == nil {
		t.Error("UnmarshalRequest(nil) should fail")
	}
}

// Property: random requests round-trip through marshal/unmarshal.
func TestQuickRequestRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := &Request{
			ID:      r.Uint64(),
			Op:      Op(r.Intn(numOps)),
			Token:   randString(r, 20),
			Volume:  VolumeID(r.Uint64()),
			Node:    NodeID(r.Uint64()),
			Parent:  NodeID(r.Uint64()),
			Name:    randString(r, 40),
			Size:    r.Uint64(),
			FromGen: Generation(r.Uint64()),
			Final:   r.Intn(2) == 0,
		}
		r.Read(q.Hash[:])
		// The decoder normalizes empty payloads to nil, so only set Data
		// when non-empty.
		if s := randString(r, 100); r.Intn(2) == 0 && s != "" {
			q.Data = []byte(s)
		}
		got, err := UnmarshalRequest(q.Marshal())
		return err == nil && reflect.DeepEqual(q, got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func randString(r *rand.Rand, maxLen int) string {
	n := r.Intn(maxLen + 1)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return string(b)
}
