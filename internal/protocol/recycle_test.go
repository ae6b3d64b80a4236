package protocol

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"u1/internal/wire"
)

// TestDecodeIntoUsedSlot decodes a sequence of frames into one slot, the way
// a connection does, and checks every result against a fresh decode: no
// Volumes, Deltas, Data or scalar of the frame before may survive. Each case
// goes in right after the fullest message there is, and after itself.
func TestDecodeIntoUsedSlot(t *testing.T) {
	requests := map[string]*Request{
		"full":    sampleRequest(),
		"golden":  goldenRequest(),
		"no data": sampleRequestNoData(),
		"ping":    {Op: OpPing},
		"zero":    {},
	}
	for name, want := range requests {
		frame := want.Marshal()
		fresh, err := UnmarshalRequest(frame)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		slot := sampleRequest()
		for round := 0; round < 2; round++ {
			if err := slot.Decode(frame); err != nil {
				t.Fatalf("%s round %d: %v", name, round, err)
			}
			if !reflect.DeepEqual(slot, fresh) {
				t.Errorf("%s round %d: used slot\n%+v\nfresh decode\n%+v", name, round, slot, fresh)
			}
		}
	}

	responses := map[string]*Response{
		"full":     sampleResponse(),
		"golden":   goldenResponse(),
		"failure":  {ID: 7, Status: StatusNotFound},
		"one list": {Status: StatusOK, Shares: []ShareInfo{{ID: 3, Name: "s"}}},
		"zero":     {},
	}
	for name, want := range responses {
		frame := encode(want)
		fresh := &Response{}
		if err := fresh.Decode(frame); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		slot := sampleResponse()
		for round := 0; round < 2; round++ {
			if err := slot.Decode(frame); err != nil {
				t.Fatalf("%s round %d: %v", name, round, err)
			}
			if !sameResponse(t, slot, fresh) {
				t.Errorf("%s round %d: used slot\n%+v\nfresh decode\n%+v", name, round, slot, fresh)
			}
		}
	}

	// A frame that fails half-way leaves nothing a later decode can see.
	slot := sampleResponse()
	full := encode(sampleResponse())
	if err := slot.Decode(full[:len(full)/2]); err == nil {
		t.Fatal("half a response decoded")
	}
	if err := slot.Decode(encode(&Response{ID: 1})); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(slot, &Response{ID: 1}) {
		t.Errorf("decode after a failed decode reads %+v", slot)
	}
}

// TestRecyclerTakesBackOnlyItsOwn pins the recycler's half of the ownership
// rule: what it hands out is wiped when it comes back, and nothing else —
// a literal, a copy, nil, a response already released — is touched.
func TestRecyclerTakesBackOnlyItsOwn(t *testing.T) {
	p := AcquireResponse()
	if want := (Response{home: p}); !reflect.DeepEqual(*p, want) {
		t.Fatalf("acquired response is not blank: %+v", *p)
	}
	*p = *sampleResponse()
	p.home = p
	copied := *p
	ReleaseResponse(&copied)
	if copied.ID != 42 || copied.Deltas.Len() != 2 {
		t.Errorf("releasing a copy wiped it: %+v", copied)
	}

	// Decoding into a response on loan keeps it on loan.
	if err := p.Decode(encode(sampleResponse())); err != nil {
		t.Fatal(err)
	}
	volumes, shares, data := p.Volumes, p.Shares, p.Data
	if deltas := entriesOf(t, p.Deltas); len(deltas) != 2 || deltas[1].Node.Name != "gone" {
		t.Fatalf("decoded deltas %+v", deltas)
	}
	ReleaseResponse(p)
	if !reflect.DeepEqual(*p, Response{}) {
		t.Errorf("released response still reads %+v", *p)
	}
	if len(volumes) != 2 || volumes[1].Path != "~/Music" || len(shares) != 1 || shares[0].Name != "proj" ||
		string(data) != "part-data" {
		t.Errorf("release reached through the envelope: %+v %+v %q", volumes, shares, data)
	}
	ReleaseResponse(p) // a second release finds nothing of the recycler's
	ReleaseResponse(nil)

	literal := sampleResponse()
	ReleaseResponse(literal)
	if !reflect.DeepEqual(literal, sampleResponse()) {
		t.Errorf("releasing a literal changed it: %+v", literal)
	}

	if allocs := testing.AllocsPerRun(1000, func() {
		r := AcquireResponse()
		r.Status = StatusNotFound
		ReleaseResponse(r)
	}); allocs != 0 {
		t.Errorf("an acquire/release pair allocates %.0f times, want 0", allocs)
	}
}

// pooledListing acquires a response carrying a listing of n entries built,
// as the server builds one, in a buffer of wire's frame pool.
func pooledListing(n int) *Response {
	p := AcquireResponse()
	var w DeltaWriter
	w.Start(64 * n)
	for i := 0; i < n; i++ {
		w.Add(NodeInfo{ID: NodeID(i + 1), Volume: 4, Name: "n"}, false)
	}
	p.Deltas = w.List()
	return p
}

// TestDeltaListBufferIsRecycled pins where a listing's bytes live. A list
// the server builds starts in a buffer of wire's frame pool, which the
// release of its response gives back, so the next list starts in the same
// buffer. A response decoded from a frame keeps the frame while its Deltas
// are a view of it and gives it back at the release; one without a listing
// gives its frame back at once. Building, reading and releasing a listing
// allocates nothing.
func TestDeltaListBufferIsRecycled(t *testing.T) {
	if !poolsKeep() {
		t.Skip("sync.Pool is dropping puts (the race detector is on)")
	}
	a := pooledListing(5)
	buf := a.Deltas.buf
	if pooled(buf) {
		t.Fatal("a listing's buffer is in the pool while the listing is live")
	}
	ReleaseResponse(a)
	if !pooled(buf) {
		t.Error("releasing a listing's response did not give its buffer back")
	}

	frameOf := func(p *Response) []byte {
		body := encode(p)
		return append(wire.AcquireFrame(len(body)), body...)
	}
	listing := pooledListing(3)
	frame := frameOf(listing)
	ReleaseResponse(listing)
	p := AcquireResponse()
	if err := p.Decode(frame); err != nil {
		t.Fatal(err)
	}
	p.KeepFrame(frame)
	if pooled(frame) {
		t.Fatal("the frame of a listing went back before its response")
	}
	if got := entriesOf(t, p.Deltas); len(got) != 3 || got[2].Node.ID != 3 {
		t.Fatalf("kept listing reads %+v", got)
	}
	ReleaseResponse(p)
	if !pooled(frame) {
		t.Error("releasing the response did not give its frame back")
	}

	plain := frameOf(&Response{ID: 3, Status: StatusOK, Data: []byte("part")})
	p = AcquireResponse()
	if err := p.Decode(plain); err != nil {
		t.Fatal(err)
	}
	p.KeepFrame(plain)
	if !pooled(plain) {
		t.Error("a frame without a listing was kept")
	}
	if string(p.Data) != "part" {
		t.Errorf("Data reads %q after its frame went back", p.Data)
	}
	ReleaseResponse(p)

	var e DeltaEntry
	if allocs := testing.AllocsPerRun(100, func() {
		p := pooledListing(50)
		for c := p.Deltas.Cursor(); ; {
			if _, ok := c.Next(&e); !ok {
				break
			}
		}
		ReleaseResponse(p)
	}); allocs != 0 {
		t.Errorf("a released listing of 50 entries allocates %.0f times, want 0", allocs)
	}
}

// pooled reports whether buf is among the frame pool's buffers of its size
// class, by taking a handful out and putting them back.
func pooled(buf []byte) bool {
	var taken [][]byte
	found := false
	for i := 0; i < 16; i++ {
		b := wire.AcquireFrame(cap(buf))
		taken = append(taken, b)
		found = found || &b[:1][0] == &buf[:1][0]
	}
	for _, b := range taken {
		wire.ReleaseFrame(b, nil)
	}
	return found
}

// TestUnreleasedListingCostsOnlyAPoolMiss: a delta response nobody gives
// back is left to the collector. Its listing stays intact however many
// listings come and go after it (the pool never lends its buffer out), and
// it costs what a pool miss costs: the response and the buffer.
func TestUnreleasedListingCostsOnlyAPoolMiss(t *testing.T) {
	kept := pooledListing(20)
	want := entriesOf(t, kept.Deltas)
	for i := 0; i < 100; i++ {
		ReleaseResponse(pooledListing(20))
	}
	if got := entriesOf(t, kept.Deltas); !slices.Equal(got, want) {
		t.Errorf("an unreleased listing changed under later ones:\n%+v\nwant\n%+v", got, want)
	}
	if !poolsKeep() {
		return
	}
	if allocs := testing.AllocsPerRun(100, func() { pooledListing(20) }); allocs > 2 {
		t.Errorf("an unreleased delta response allocates %.0f times, want at most 2 (the response and its buffer)", allocs)
	}
}

// poolsKeep reports whether a sync.Pool hands back what was just put into
// it; under the race detector it drops a quarter of all puts on purpose.
func poolsKeep() bool {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		x := new(int)
		p.Put(x)
		if got, _ := p.Get().(*int); got != x {
			return false
		}
	}
	return true
}
