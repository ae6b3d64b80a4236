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
// Buffer ownership. ReadFrame allocates a fresh buffer per frame and hands it
// to the caller; wire keeps no reference, and whatever the caller decodes out
// of it (Reader.Bytes, protocol.Unmarshal*) aliases that buffer and lives as
// long as it does. On the way out nothing is retained either: WriteFrame and
// FrameWriter.WriteMessage have put every byte on the writer by the time they
// return, so the caller may reuse its payload. A byte slice recorded with
// Writer.Payload is written from where it lies, never copied and never
// modified.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
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

// rawFrame is the header and write vector of one WriteFrame call, pooled so
// that a frame costs no allocation of its own.
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
// header and the fields share one buffer the FrameWriter owns and reuses, and
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

// maxKeptEncodeBuffer bounds the encode buffer a FrameWriter keeps between
// frames, so one large listing does not stay allocated for the life of the
// connection.
const maxKeptEncodeBuffer = 64 << 10

// WriteMessage encodes m and writes it as one frame of the given type.
func (f *FrameWriter) WriteMessage(msgType byte, m Message) error {
	e := &f.enc
	e.buf = append(e.buf[:0], 0, 0, 0, 0, msgType) // length patched in below
	m.Encode(e)
	head, payload, tail := e.split()
	e.payload = nil // written below from the locals; the writer keeps no reference
	if cap(e.buf) > maxKeptEncodeBuffer {
		e.buf = nil
	}
	n := len(head) + len(payload) + len(tail) - frameHeaderSize
	if n > MaxFrameSize {
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(head, uint32(n))
	return f.write(f.w, head, payload, tail)
}

// ReadFrame reads one frame from r. It returns the message type and payload;
// the payload is a fresh buffer the caller owns. Oversized frames are
// rejected before allocation so a malicious peer cannot force large
// allocations (DDoS hygiene, §5.4).
func ReadFrame(r io.Reader) (msgType byte, payload []byte, err error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, ErrTruncated
		}
		return 0, nil, err // io.EOF passes through for clean shutdown
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > MaxFrameSize {
		return 0, nil, ErrFrameTooLarge
	}
	msgType = hdr[4]
	if n == 0 {
		return msgType, nil, nil
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, ErrTruncated
	}
	return msgType, payload, nil
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

// Len returns the number of encoded bytes.
func (w *Writer) Len() int { return len(w.buf) + len(w.payload) }

// Reset clears the buffer for reuse.
func (w *Writer) Reset() { w.buf, w.payload = w.buf[:0], nil }

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// Varint appends a signed zig-zag varint.
func (w *Writer) Varint(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

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

// Fixed64 appends an 8-byte big-endian integer (used for hashes and times
// where varint width variance is undesirable).
func (w *Writer) Fixed64(v uint64) {
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
}

// Float64 appends an IEEE-754 double.
func (w *Writer) Float64(f float64) { w.Fixed64(math.Float64bits(f)) }

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

// Varint reads a signed zig-zag varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
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

// Fixed64 reads an 8-byte big-endian integer.
func (r *Reader) Fixed64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 8 {
		r.fail(ErrTruncated)
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// Float64 reads an IEEE-754 double.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Fixed64()) }
