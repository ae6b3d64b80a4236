// Package wire implements the binary encoding and framing of the U1 storage
// protocol stand-in. The real service used a proprietary protocol built on
// TCP and Google Protocol Buffers (§3.1); this package provides the same
// ingredients from the standard library only: varint-based field encoding
// (Writer/Reader) and length-prefixed frames with a one-byte message type
// (WriteFrame/ReadFrame).
//
// Encoding rules: unsigned integers are uvarints, signed integers zig-zag
// varints, byte slices and strings are length-prefixed, booleans one byte.
// Messages are fixed field sequences (no tags); the message type byte in the
// frame header selects the decoder, exactly like a protobuf oneof envelope
// but simpler to audit.
//
// Buffer ownership. Frame buffers up to maxPooledFrame (64 KB) are
// recycled. ReadFrame reads a frame of that size into a buffer from
// power-of-two size classes (512 B to 64 KB) and hands it to the caller on
// loan; a larger frame is read into a fresh buffer of its exact size, which
// the caller owns. Whatever the caller decodes out of a frame (Reader.Bytes,
// protocol.Unmarshal*) aliases it, so a connection loop decodes the frame,
// then calls ReleaseFrame once with the message's Data: the frame goes back,
// and the Data comes out in memory nobody recycles. A GetDelta answer is the
// exception: its listing is read in place, so the client's read loop hands
// the frame to the response (protocol.Response.KeepFrame), and the frame
// goes back at protocol.ReleaseResponse, not in the loop. The server builds
// such a listing in a buffer of the same pool (AcquireFrame), which goes
// back the same way. Data leaves a recycled frame as an exact copy and a
// larger frame as itself, which keeps the
// read the one user-space copy of a part above 64 KB: the object store
// adopts the Data as the stored part and serves downloads from it. A smaller
// part takes one more copy, of at most 64 KB, so a stored part never pins a
// recycled buffer's slack. On the way out, FrameWriter.WriteMessage encodes
// into a buffer from one shared pool and gives it back after the write, so a
// FrameWriter holds no buffer between frames. WriteFrame and WriteMessage
// have put every byte on the writer by the time they return, so the caller
// may reuse its payload. A byte slice recorded with Writer.Payload is
// written from where it lies, never copied and never modified.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"sync"
)

// Frame layout: 4-byte big-endian payload length, 1-byte message type,
// payload. The length covers only the payload (not the type byte).
const (
	frameHeaderSize = 5
	// MaxFrameSize bounds a frame payload. Uploads stream file contents in
	// 5 MB parts (the S3 multipart part size, appendix A), so frames never
	// legitimately exceed parts plus small headers.
	MaxFrameSize = 6 << 20
)

// Common wire errors.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")
	ErrTruncated     = errors.New("wire: truncated message")
	ErrOverflow      = errors.New("wire: varint overflows 64 bits")
)

// segments is the write vector of one frame. It lives inside a value that is
// already on the heap (a FrameWriter, or WriteFrame's pooled state) so that
// handing &vec to net.Buffers.WriteTo allocates nothing.
type segments struct {
	arr [3][]byte
	vec net.Buffers
}

// write puts head, payload and tail on w as one frame: a single Write when
// head is all there is, otherwise one vectored write, which is one writev on
// a TCP connection and one Write per segment on any other writer.
func (s *segments) write(w io.Writer, head, payload, tail []byte) error {
	var err error
	if len(payload) == 0 && len(tail) == 0 {
		_, err = w.Write(head)
	} else {
		n := 0
		for _, seg := range [...][]byte{head, payload, tail} {
			if len(seg) > 0 {
				s.arr[n] = seg
				n++
			}
		}
		s.vec = s.arr[:n]
		_, err = s.vec.WriteTo(w)
		s.arr, s.vec = [3][]byte{}, nil // do not pin the payload
	}
	if err != nil {
		return fmt.Errorf("wire: writing frame: %w", err)
	}
	return nil
}

// WriteFrame writes one frame with the given message type and an already
// encoded payload. The payload is written from where it lies.
func WriteFrame(w io.Writer, msgType byte, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return ErrFrameTooLarge
	}
	f := rawFrames.Get().(*rawFrame)
	binary.BigEndian.PutUint32(f.hdr[:4], uint32(len(payload)))
	f.hdr[4] = msgType
	err := f.write(w, f.hdr[:], payload, nil)
	rawFrames.Put(f)
	return err
}

// rawFrame is the header and write vector of one WriteFrame call, or the
// header one ReadFrame reads, pooled so that a frame costs no allocation of
// its own.
type rawFrame struct {
	hdr [frameHeaderSize]byte
	segments
}

var rawFrames = sync.Pool{New: func() any { return new(rawFrame) }}

// Message is a protocol message that encodes its fixed field sequence.
type Message interface {
	Encode(w *Writer)
}

// FrameWriter encodes messages straight into frames on one connection: the
// header and the fields share one encode buffer, taken from a pool shared by
// every connection for the one frame and given back after it is written, and
// a field recorded with Writer.Payload goes out as its own segment of the
// same vectored write. Not safe for concurrent use; the connection's write
// lock guards it.
type FrameWriter struct {
	w   io.Writer
	enc Writer
	segments
}

// NewFrameWriter returns a FrameWriter on w.
func NewFrameWriter(w io.Writer) *FrameWriter { return &FrameWriter{w: w} }

// maxPooledFrame is the one ceiling on what wire recycles. An encode buffer
// that grew past it and a frame read above it go to the collector, so one
// huge listing or part does not stay allocated. Read buffers come in
// power-of-two size classes from 1<<minFrameShift (512 B) up to it.
const (
	minFrameShift  = 9
	maxFrameShift  = 16
	maxPooledFrame = 1 << maxFrameShift
	frameClasses   = maxFrameShift - minFrameShift + 1
)

// frameBuf carries one buffer through a sync.Pool, which keeps a pointer
// without allocating where a slice would be boxed.
type frameBuf struct{ b []byte }

var (
	encodeBufs sync.Pool               // *frameBuf: b empty, of any capacity up to maxPooledFrame
	frameBufs  [frameClasses]sync.Pool // *frameBuf: b of exactly its class's capacity
	emptyBufs  sync.Pool               // *frameBuf: b nil, the carriers of frames on loan
)

// frameClass returns the size class of a frame of n bytes, 0 < n <=
// maxPooledFrame.
func frameClass(n int) int {
	if n <= 1<<minFrameShift {
		return 0
	}
	return bits.Len(uint(n-1)) - minFrameShift
}

// WriteMessage encodes m and writes it as one frame of the given type.
func (f *FrameWriter) WriteMessage(msgType byte, m Message) error {
	h, _ := encodeBufs.Get().(*frameBuf)
	if h == nil {
		h = new(frameBuf)
	}
	e := &f.enc
	e.buf = append(h.b, 0, 0, 0, 0, msgType) // length patched in below
	m.Encode(e)
	head, payload, tail := e.split()
	e.buf, e.payload = nil, nil // written below from the locals; the writer keeps nothing
	err := ErrFrameTooLarge
	if n := len(head) + len(payload) + len(tail) - frameHeaderSize; n <= MaxFrameSize {
		binary.BigEndian.PutUint32(head, uint32(n))
		err = f.write(f.w, head, payload, tail)
	}
	h.b = nil
	if cap(head) <= maxPooledFrame {
		h.b = head[:0]
	}
	encodeBufs.Put(h)
	return err
}

// ReadFrame reads one frame from r. It returns the message type and payload:
// up to maxPooledFrame, a recycled buffer on loan until ReleaseFrame; above
// it, a fresh buffer the caller owns. A frame above MaxFrameSize is refused
// from its header (DDoS hygiene, §5.4), but a smaller one is allocated whole
// as soon as its header is read: a peer not yet trusted reads ReadSmallFrame.
func ReadFrame(r io.Reader) (msgType byte, payload []byte, err error) {
	return readFrame(r, MaxFrameSize)
}

// ReadSmallFrame is ReadFrame refusing any frame above one pooled buffer.
func ReadSmallFrame(r io.Reader) (msgType byte, payload []byte, err error) {
	return readFrame(r, maxPooledFrame)
}

// readFrame reads one frame of at most limit bytes.
func readFrame(r io.Reader, limit uint32) (msgType byte, payload []byte, err error) {
	hdr := rawFrames.Get().(*rawFrame)
	_, err = io.ReadFull(r, hdr.hdr[:])
	n, msgType := binary.BigEndian.Uint32(hdr.hdr[:4]), hdr.hdr[4]
	rawFrames.Put(hdr)
	if err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, ErrTruncated
		}
		return 0, nil, err // io.EOF passes through for clean shutdown
	}
	if n > limit {
		return 0, nil, ErrFrameTooLarge
	}
	if n == 0 {
		return msgType, nil, nil
	}
	payload = takeFrame(int(n))
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, ErrTruncated // the half-filled buffer is dropped, never pooled
	}
	return msgType, payload, nil
}

// takeFrame returns a buffer of n bytes: recycled from n's size class when
// one is pooled, else a new one of the class's capacity, or of exactly n
// bytes above maxPooledFrame.
func takeFrame(n int) []byte {
	if n > maxPooledFrame {
		return make([]byte, n)
	}
	c := frameClass(n)
	if h, _ := frameBufs[c].Get().(*frameBuf); h != nil {
		b := h.b[:n]
		h.b = nil
		emptyBufs.Put(h)
		return b
	}
	return make([]byte, n, 1<<(c+minFrameShift))
}

// AcquireFrame returns an empty buffer with room for n bytes, from the pool
// ReadFrame reads into when n fits a pooled size class: a buffer to encode
// into that ReleaseFrame takes back like a frame.
func AcquireFrame(n int) []byte { return takeFrame(n)[:0] }

// ReleaseFrame gives back a payload ReadFrame returned, once the message in
// it is decoded, or a buffer AcquireFrame returned, and returns data — the message's Data, a slice of frame, or
// nil — in memory nobody recycles: out of a recycled frame, an exact copy;
// out of a frame above maxPooledFrame, data itself, which the caller may
// keep. Neither frame nor any other slice of it may be used afterwards.
func ReleaseFrame(frame, data []byte) []byte {
	c := cap(frame)
	if c > maxPooledFrame {
		return data
	}
	data = bytes.Clone(data)
	if c != 1<<(frameClass(c)+minFrameShift) {
		return data // not a frame buffer: nothing to give back
	}
	poison(frame[:c])
	h, _ := emptyBufs.Get().(*frameBuf)
	if h == nil {
		h = new(frameBuf)
	}
	h.b = frame[:0]
	frameBufs[frameClass(c)].Put(h)
	return data
}

// Writer serializes fields into a growing buffer. The zero value is ready to
// use. Writer never fails; the buffer grows as needed.
type Writer struct {
	buf []byte
	// payload is the one field recorded by reference (Payload); its bytes
	// belong between buf[:payloadAt] and buf[payloadAt:].
	payload   []byte
	payloadAt int
}

// NewWriter returns a Writer with capacity preallocated for n bytes.
func NewWriter(n int) *Writer { return &Writer{buf: make([]byte, 0, n)} }

// Reset discards everything written so far and keeps the buffer, so a Writer
// reused for message after message allocates only when one outgrows it.
// Slices Bytes returned before are overwritten by later writes.
func (w *Writer) Reset() { w.buf, w.payload, w.payloadAt = w.buf[:0], nil, 0 }

// ResetTo discards everything written so far and continues in buf[:0], so
// what follows lands in memory the caller chose (an AcquireFrame buffer, say)
// for as long as it has room.
func (w *Writer) ResetTo(buf []byte) { w.buf, w.payload, w.payloadAt = buf[:0], nil, 0 }

// Truncate keeps the first n bytes of a Writer holding no Payload.
func (w *Writer) Truncate(n int) { w.buf = w.buf[:n] }

// Bytes returns the encoded message. Without a Payload the slice aliases
// internal storage and is invalidated by further writes; with one it is a
// fresh buffer of exactly the encoded size with the payload copied in place.
func (w *Writer) Bytes() []byte {
	head, payload, tail := w.split()
	if payload == nil {
		return head
	}
	return bytes.Join([][]byte{head, payload, tail}, nil)
}

// split returns the encoded message as the segments around its Payload.
func (w *Writer) split() (head, payload, tail []byte) {
	if w.payload == nil {
		return w.buf, nil, nil
	}
	return w.buf[:w.payloadAt], w.payload, w.buf[w.payloadAt:]
}

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// Byte appends a raw byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(b bool) {
	if b {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// Raw appends b as it is, with no length prefix: bytes some other Writer
// already encoded, such as a run of fields kept in their encoded form.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Bytes_ appends a length-prefixed byte slice.
func (w *Writer) Bytes_(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// Payload appends a length-prefixed byte slice by reference: the encoding is
// that of Bytes_, but b is not copied until Bytes joins the message, and a
// FrameWriter never copies it at all. A message has at most one such field
// (its Data); b must stay unmodified until the message has been written.
func (w *Writer) Payload(b []byte) {
	w.Uvarint(uint64(len(b)))
	if len(b) == 0 {
		return
	}
	if w.payload != nil {
		panic("wire: second Payload in one message")
	}
	w.payload, w.payloadAt = b, len(w.buf)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Reader decodes fields from a buffer produced by Writer. Decoding errors are
// sticky: after the first failure every Get returns a zero value and Err
// reports the cause, so message decoders can be written as straight-line code
// with a single error check at the end.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unconsumed bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Consumed returns the bytes read so far. It aliases the input buffer, so
// the span a run of reads took is Consumed()[before:], where before is the
// length Consumed had when the run started.
func (r *Reader) Consumed() []byte { return r.buf[:r.off] }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	switch {
	case n > 0:
		r.off += n
		return v
	case n == 0:
		r.fail(ErrTruncated)
	default:
		r.fail(ErrOverflow)
	}
	return 0
}

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail(ErrTruncated)
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// Bytes reads a length-prefixed byte slice. The result aliases the input
// buffer; callers that retain it must copy.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.Remaining()) {
		r.fail(ErrTruncated)
		return nil
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }
