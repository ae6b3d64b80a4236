package protocol

import "sync"

// The response recycler. A server answers every request with one Response
// that is dead the moment its consumer has copied it out or written it to
// the wire, so the serving path takes its responses here instead of from
// the allocator.
//
// Ownership rule, the counterpart of the borrowed-request rule on
// client.Transport.Do: a response returned by Transport.Do, Server.Handle or
// Server.OpenSession is handed over — the giver keeps no reference to it,
// and the taker may release it once, after which it must not touch it again.
// Releasing is optional: a taker that never releases leaves the response to
// the garbage collector, and releasing a response that was not acquired here
// (a test's canned literal, a copy of an acquired one) does nothing.
var responses = sync.Pool{New: func() any { return new(Response) }}

// AcquireResponse returns a zero response that ReleaseResponse takes back.
func AcquireResponse() *Response {
	p := responses.Get().(*Response)
	p.home = p
	return p
}

// ReleaseResponse wipes a response obtained from AcquireResponse and makes
// it available to the next acquirer; any other response, and nil, is left
// alone. What the response's slices pointed at is not touched: a copy of the
// envelope made before the release keeps its Volumes, Deltas and Data.
func ReleaseResponse(p *Response) {
	if p == nil || p.home != p {
		return
	}
	*p = Response{}
	responses.Put(p)
}
