package protocol

import "sync"

// The response recycler. A server answers every request with one Response
// that is dead the moment its consumer has read it or written it to the
// wire, so the serving path takes its responses here instead of from the
// allocator.
//
// Ownership rule, the counterpart of the borrowed-request rule on
// client.Transport.Do: a response returned by Transport.Do, Server.Handle or
// Server.OpenSession is handed over — the giver keeps no reference to it,
// and the taker may release it once, after which it must not touch it again.
// Releasing is optional: a taker that never releases leaves the response to
// the garbage collector, and releasing a response that was not acquired here
// (a test's canned literal, a copy of an acquired one) does nothing.
var responses = sync.Pool{New: func() any { return new(Response) }}

// deltaArrays holds the delta arrays released responses decoded into, for
// the next Decode to append into: a client reading listings over a socket
// pays for one array, not one per listing. An array above maxKeptDeltas
// entries is left to the collector, so the pool never pins a huge one.
var deltaArrays = sync.Pool{New: func() any { return new([]DeltaEntry) }}

const maxKeptDeltas = 4096

// AcquireResponse returns a zero response that ReleaseResponse takes back.
func AcquireResponse() *Response {
	p := responses.Get().(*Response)
	p.home = p
	return p
}

// ReleaseResponse wipes a response obtained from AcquireResponse and makes
// it available to the next acquirer; any other response, and nil, is left
// alone. A copy of the envelope made before the release keeps its Volumes,
// Shares and Data: the release does not reach what they point at. It does
// reach Deltas when Decode filled them: that array goes back to the
// recycler, its entries zeroed (under the race detector, overwritten with a
// sentinel: ID ^NodeID(0), Name "released"), so a caller keeps what it needs
// of a listing before it releases the response the listing came in.
func ReleaseResponse(p *Response) {
	if p == nil || p.home != p {
		return
	}
	if p.deltas != nil {
		releaseDeltas(p.deltas)
	}
	*p = Response{}
	responses.Put(p)
}

// releaseDeltas scrubs a decoded delta array and keeps it if it is small
// enough.
func releaseDeltas(b *[]DeltaEntry) {
	keep := cap(*b) <= maxKeptDeltas
	if keep || poisonReleased {
		scrub(*b)
	}
	if keep {
		*b = (*b)[:0]
		deltaArrays.Put(b)
	}
}
