package protocol

import "u1/internal/wire"

// DeltaList is the listing a GetDelta response carries, in its wire form: a
// count and the entries back to back, each MarshalNodeInfo's fields followed
// by the deleted byte — the very bytes Response.Encode writes. It is
// read-only and read through a DeltaCursor. The zero value is the empty
// list.
//
// A list's bytes belong to the response that carries it. The server builds a
// list in a buffer from wire's frame pool (DeltaWriter); a decode leaves the
// list a view of the frame it read, which the response then keeps
// (Response.KeepFrame). ReleaseResponse gives that buffer back through
// wire.ReleaseFrame, so a caller reads what it needs of a listing before it
// releases the response the listing came in; under the race detector the
// buffer is poisoned at release, and a late read finds the poison.
type DeltaList struct {
	n   int
	b   []byte // the entries
	buf []byte // the buffer b lies in when the list owns one, else nil
}

// Len returns the number of entries.
func (l DeltaList) Len() int { return l.n }

// Cursor returns a cursor at the list's first entry.
func (l DeltaList) Cursor() DeltaCursor {
	return DeltaCursor{r: *wire.NewReader(l.b), left: l.n}
}

// DeltaCursor reads a DeltaList entry by entry.
type DeltaCursor struct {
	r    wire.Reader
	left int
}

// Next reads the next entry into e and reports whether there was one. The
// entry's name is not allocated: e.Node.Name is left empty and name holds its
// bytes, aliasing the list, so a caller that already holds an equal string
// keeps that one. Next reports false past the last entry and at one that
// does not decode: a list a response decoded or a DeltaWriter built yields
// exactly Len entries, and one read after its response was released need
// not.
func (c *DeltaCursor) Next(e *DeltaEntry) (name []byte, ok bool) {
	if c.left == 0 {
		return nil, false
	}
	c.left--
	name = readNodeInfo(&c.r, &e.Node)
	e.Deleted = c.r.Bool()
	return name, c.r.Err() == nil
}

// DeltaWriter builds a DeltaList. Start it on a buffer from wire's frame
// pool; a zero DeltaWriter writes into memory of its own.
type DeltaWriter struct {
	w wire.Writer
	n int
}

// Start discards what was written and starts an empty list in a pooled
// buffer with room for size bytes; a list that outgrows it moves into a
// larger buffer.
func (d *DeltaWriter) Start(size int) {
	d.w.ResetTo(wire.AcquireFrame(size))
	d.n = 0
}

// Add appends an entry.
func (d *DeltaWriter) Add(n NodeInfo, deleted bool) {
	MarshalNodeInfo(&d.w, n)
	d.w.Bool(deleted)
	d.n++
}

// AddEncoded appends an entry already in its wire form: the bytes Add would
// have written.
func (d *DeltaWriter) AddEncoded(entry []byte) {
	d.w.Raw(entry)
	d.n++
}

// List returns the list written and leaves the writer zero. The list owns
// the writer's buffer, which goes back to the frame pool when the response
// carrying the list is released.
func (d *DeltaWriter) List() DeltaList {
	b := d.w.Bytes()
	l := DeltaList{n: d.n, b: b, buf: b}
	*d = DeltaWriter{}
	return l
}
