package protocol

import (
	"sync"

	"u1/internal/wire"
)

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
// reach the bytes of Deltas: the buffer they lie in — the server's pooled
// copy of its log, or the frame a client read — goes back to wire's frame
// pool (under the race detector, filled with a sentinel byte first), so a
// caller keeps what it needs of a listing before it releases the response
// the listing came in.
func ReleaseResponse(p *Response) {
	if p == nil || p.home != p {
		return
	}
	if p.Deltas.buf != nil {
		wire.ReleaseFrame(p.Deltas.buf, nil)
	}
	*p = Response{}
	responses.Put(p)
}
