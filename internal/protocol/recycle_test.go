package protocol

import (
	"reflect"
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
	volumes, data := p.Volumes, p.Data
	ReleaseResponse(p)
	if !reflect.DeepEqual(*p, Response{}) {
		t.Errorf("released response still reads %+v", *p)
	}
	if len(volumes) != 2 || volumes[1].Path != "~/Music" || string(data) != "part-data" {
		t.Errorf("release reached through the envelope: %+v %q", volumes, data)
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
