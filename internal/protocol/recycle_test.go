package protocol

import (
	"reflect"
	"sync"
	"testing"
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
			if !reflect.DeepEqual(slot, fresh) {
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
	if copied.ID != 42 || len(copied.Deltas) != 2 {
		t.Errorf("releasing a copy wiped it: %+v", copied)
	}

	// Decoding into a response on loan keeps it on loan.
	if err := p.Decode(encode(sampleResponse())); err != nil {
		t.Fatal(err)
	}
	volumes, shares, data, deltas := p.Volumes, p.Shares, p.Data, p.Deltas
	if len(deltas) != 2 || deltas[1].Node.Name != "gone" {
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
	// The decoded listing is the recycler's again: scrubbed, no name left.
	for i, d := range deltas {
		if d != released {
			t.Errorf("released delta %d still reads %+v, want %+v", i, d, released)
		}
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

// released is what a scrubbed delta entry reads.
var released = func() DeltaEntry {
	if poisonReleased {
		return DeltaEntry{Node: NodeInfo{ID: ^NodeID(0), Name: "released"}}
	}
	return DeltaEntry{}
}()

// TestReleasedListingIsPoisoned is the race build's tripwire: a copy of a
// response that outlives its release finds the sentinel in every delta,
// which a mirror built from it would then hold.
func TestReleasedListingIsPoisoned(t *testing.T) {
	if !poisonReleased {
		t.Skip("released listings are poisoned only under -race")
	}
	p := AcquireResponse()
	if err := p.Decode(encode(sampleResponse())); err != nil {
		t.Fatal(err)
	}
	copied := *p
	ReleaseResponse(p)
	for i, d := range copied.Deltas {
		if d.Node.ID != ^NodeID(0) || d.Node.Name != "released" {
			t.Errorf("delta %d of a released response reads %+v, want the sentinel", i, d)
		}
	}
}

// TestDeltaArrayIsRecycled pins the one array the recycler keeps: a listing
// decoded into a response on loan goes into the array the last release gave
// back, unless that array was too large to keep; a literal decodes into an
// array of its own, as before.
func TestDeltaArrayIsRecycled(t *testing.T) {
	if !poolsKeep() {
		t.Skip("sync.Pool is dropping puts (the race detector is on)")
	}
	listing := func(n int) []byte {
		r := &Response{Status: StatusOK, Rescan: true, Deltas: make([]DeltaEntry, n)}
		for i := range r.Deltas {
			r.Deltas[i].Node = NodeInfo{ID: NodeID(i + 1), Name: "n"}
		}
		return encode(r)
	}
	decode := func(frame []byte) *DeltaEntry {
		p := AcquireResponse()
		if err := p.Decode(frame); err != nil {
			t.Fatal(err)
		}
		first := &p.Deltas[0]
		ReleaseResponse(p)
		return first
	}
	small := listing(200)
	a := decode(small)
	if b := decode(small); b != a {
		t.Error("a second listing went into a new array")
	}
	huge := listing(maxKeptDeltas + 1)
	c := decode(huge)
	if d := decode(huge); d == c {
		t.Errorf("an array above %d entries was kept", maxKeptDeltas)
	}
	if allocs := testing.AllocsPerRun(100, func() { decode(small) }); allocs > 200 {
		t.Errorf("decoding a kept-size listing allocates %.0f times, want only its names (200)", allocs)
	}

	var lit Response
	if err := lit.Decode(small); err != nil {
		t.Fatal(err)
	}
	if lit.deltas != nil {
		t.Error("a literal decoded into the recycler's array")
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
