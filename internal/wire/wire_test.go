package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
	"testing/quick"
)

func TestWriterReaderRoundTrip(t *testing.T) {
	w := NewWriter(64)
	w.Uvarint(0)
	w.Uvarint(300)
	w.Uvarint(math.MaxUint64)
	w.Varint(-1)
	w.Varint(1 << 40)
	w.Byte(0xAB)
	w.Bool(true)
	w.Bool(false)
	w.Bytes_([]byte{1, 2, 3})
	w.String("ubuntuone")
	w.String("")
	w.Fixed64(0xDEADBEEF)
	w.Float64(1.171)

	r := NewReader(w.Bytes())
	if got := r.Uvarint(); got != 0 {
		t.Errorf("uvarint0 = %d", got)
	}
	if got := r.Uvarint(); got != 300 {
		t.Errorf("uvarint300 = %d", got)
	}
	if got := r.Uvarint(); got != math.MaxUint64 {
		t.Errorf("uvarint max = %d", got)
	}
	if got := r.Varint(); got != -1 {
		t.Errorf("varint-1 = %d", got)
	}
	if got := r.Varint(); got != 1<<40 {
		t.Errorf("varint big = %d", got)
	}
	if got := r.Byte(); got != 0xAB {
		t.Errorf("byte = %x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("bools wrong")
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("bytes = %v", got)
	}
	if got := r.String(); got != "ubuntuone" {
		t.Errorf("string = %q", got)
	}
	if got := r.String(); got != "" {
		t.Errorf("empty string = %q", got)
	}
	if got := r.Fixed64(); got != 0xDEADBEEF {
		t.Errorf("fixed64 = %x", got)
	}
	if got := r.Float64(); got != 1.171 {
		t.Errorf("float = %v", got)
	}
	if r.Err() != nil {
		t.Fatalf("unexpected error: %v", r.Err())
	}
	if r.Remaining() != 0 {
		t.Errorf("remaining = %d", r.Remaining())
	}
}

func TestReaderStickyError(t *testing.T) {
	r := NewReader([]byte{}) // empty
	_ = r.Uvarint()
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("err = %v", r.Err())
	}
	// All subsequent reads return zero values without panicking.
	if r.Uvarint() != 0 || r.Varint() != 0 || r.Byte() != 0 || r.Bool() ||
		r.Bytes() != nil || r.String() != "" || r.Fixed64() != 0 || r.Float64() != 0 {
		t.Error("reads after error should be zero")
	}
}

func TestReaderTruncation(t *testing.T) {
	w := NewWriter(16)
	w.Bytes_([]byte("hello"))
	full := w.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		_ = r.Bytes()
		if r.Err() == nil {
			t.Errorf("cut=%d: expected truncation error", cut)
		}
	}
}

func TestReaderLengthLies(t *testing.T) {
	// A length prefix larger than the remaining buffer must not panic.
	w := NewWriter(8)
	w.Uvarint(1 << 30)
	r := NewReader(w.Bytes())
	if b := r.Bytes(); b != nil || !errors.Is(r.Err(), ErrTruncated) {
		t.Errorf("got %v err %v", b, r.Err())
	}
}

func TestVarintOverflow(t *testing.T) {
	// 11 continuation bytes overflow a 64-bit varint.
	buf := bytes.Repeat([]byte{0xFF}, 11)
	r := NewReader(buf)
	_ = r.Uvarint()
	if !errors.Is(r.Err(), ErrOverflow) {
		t.Errorf("err = %v, want overflow", r.Err())
	}
}

func TestWriterReset(t *testing.T) {
	w := NewWriter(8)
	w.String("abc")
	if w.Len() == 0 {
		t.Fatal("writer should have content")
	}
	w.Reset()
	if w.Len() != 0 {
		t.Error("reset should clear")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("storage_done")
	if err := WriteFrame(&buf, 7, payload); err != nil {
		t.Fatal(err)
	}
	mt, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if mt != 7 || !bytes.Equal(got, payload) {
		t.Errorf("frame = type %d payload %q", mt, got)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 3, nil); err != nil {
		t.Fatal(err)
	}
	mt, payload, err := ReadFrame(&buf)
	if err != nil || mt != 3 || payload != nil {
		t.Errorf("got type=%d payload=%v err=%v", mt, payload, err)
	}
}

func TestFrameTooLargeWrite(t *testing.T) {
	err := WriteFrame(io.Discard, 1, make([]byte, MaxFrameSize+1))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v", err)
	}
}

func TestFrameTooLargeRead(t *testing.T) {
	// Forge a header claiming a payload above the cap: must be rejected
	// before allocation.
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF, 1}
	_, _, err := ReadFrame(bytes.NewReader(hdr))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v", err)
	}
}

func TestFrameCleanEOF(t *testing.T) {
	_, _, err := ReadFrame(bytes.NewReader(nil))
	if !errors.Is(err, io.EOF) {
		t.Errorf("err = %v, want io.EOF", err)
	}
}

func TestFrameTruncatedHeader(t *testing.T) {
	_, _, err := ReadFrame(bytes.NewReader([]byte{0, 0}))
	if !errors.Is(err, ErrTruncated) {
		t.Errorf("err = %v, want truncated", err)
	}
}

func TestFrameTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 1, []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	_, _, err := ReadFrame(bytes.NewReader(raw[:len(raw)-2]))
	if !errors.Is(err, ErrTruncated) {
		t.Errorf("err = %v, want truncated", err)
	}
}

func TestMultipleFramesSequential(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 10; i++ {
		if err := WriteFrame(&buf, byte(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		mt, payload, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if int(mt) != i || int(payload[0]) != i {
			t.Errorf("frame %d: type=%d payload=%v", i, mt, payload)
		}
	}
}

// Property: any (uvarint, string, bytes) triple survives a round trip.
func TestQuickRoundTrip(t *testing.T) {
	f := func(u uint64, s string, b []byte, sv int64, fl float64) bool {
		w := NewWriter(32)
		w.Uvarint(u)
		w.String(s)
		w.Bytes_(b)
		w.Varint(sv)
		w.Float64(fl)
		r := NewReader(w.Bytes())
		gu := r.Uvarint()
		gs := r.String()
		gb := r.Bytes()
		gsv := r.Varint()
		gfl := r.Float64()
		if r.Err() != nil {
			return false
		}
		floatOK := gfl == fl || (math.IsNaN(gfl) && math.IsNaN(fl))
		return gu == u && gs == s && bytes.Equal(gb, b) && gsv == sv && floatOK && r.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: frames survive a round trip through a pipe for any payload ≤ cap.
func TestQuickFrameRoundTrip(t *testing.T) {
	f := func(mt byte, payload []byte) bool {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, mt, payload); err != nil {
			return false
		}
		gmt, gp, err := ReadFrame(&buf)
		if err != nil {
			return false
		}
		return gmt == mt && bytes.Equal(gp, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// countingReader reports how many bytes ReadFrame consumed.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// FuzzReadFrame feeds arbitrary bytes to ReadFrame: it must never panic, must
// refuse an oversized frame having read the header and nothing else, and a
// frame it accepts must re-encode to exactly the bytes it consumed.
func FuzzReadFrame(f *testing.F) {
	var golden bytes.Buffer
	WriteFrame(&golden, 1, []byte("storage_done")) //nolint:errcheck
	f.Add(golden.Bytes())
	f.Add([]byte{0, 0, 0, 0, 2})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 0})
	f.Add([]byte{0, 0, 0, 9, 1, 'x'})
	f.Fuzz(func(t *testing.T, in []byte) {
		src := &countingReader{r: bytes.NewReader(in)}
		msgType, payload, err := ReadFrame(src)
		if len(in) >= frameHeaderSize && binary.BigEndian.Uint32(in) > MaxFrameSize {
			if !errors.Is(err, ErrFrameTooLarge) || src.n != frameHeaderSize {
				t.Fatalf("oversized frame: err %v after %d bytes", err, src.n)
			}
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteFrame(&out, msgType, payload); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), in[:src.n]) {
			t.Fatalf("re-encoded %x, consumed %x", out.Bytes(), in[:src.n])
		}
	})
}

// fields is a Message of two plain fields around an optional Payload.
type fields struct {
	before, after string
	payload       []byte
}

func (m fields) Encode(w *Writer) {
	w.String(m.before)
	w.Payload(m.payload)
	w.String(m.after)
}

// A Payload is encoded exactly like Bytes_, whether the message is joined
// (Writer.Bytes) or framed (FrameWriter), and empty payloads need no segment.
func TestPayloadEncodesLikeBytes(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("5 MB of file content")} {
		plain := NewWriter(16)
		plain.String("head")
		plain.Bytes_(payload)
		plain.String("tail")

		m := fields{before: "head", after: "tail", payload: payload}
		var joined Writer
		m.Encode(&joined)
		if !bytes.Equal(joined.Bytes(), plain.Bytes()) || joined.Len() != plain.Len() {
			t.Errorf("payload %q: joined %x (len %d), want %x", payload, joined.Bytes(), joined.Len(), plain.Bytes())
		}

		var framed, want bytes.Buffer
		if err := NewFrameWriter(&framed).WriteMessage(9, m); err != nil {
			t.Fatal(err)
		}
		if err := WriteFrame(&want, 9, plain.Bytes()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(framed.Bytes(), want.Bytes()) {
			t.Errorf("payload %q: framed %x, want %x", payload, framed.Bytes(), want.Bytes())
		}
	}
}

func TestFrameWriterRefusesOversizedMessage(t *testing.T) {
	var out bytes.Buffer
	err := NewFrameWriter(&out).WriteMessage(1, fields{payload: make([]byte, MaxFrameSize)})
	if !errors.Is(err, ErrFrameTooLarge) || out.Len() != 0 {
		t.Errorf("err = %v with %d bytes written", err, out.Len())
	}
}

// The encode buffer is the connection's, kept between frames — but one huge
// listing must not stay allocated for the life of the connection, and a
// written payload must not stay referenced.
func TestFrameWriterKeepsNoLargeBuffer(t *testing.T) {
	fw := NewFrameWriter(io.Discard)
	if err := fw.WriteMessage(1, fields{before: string(make([]byte, 4*maxKeptEncodeBuffer))}); err != nil {
		t.Fatal(err)
	}
	if c := cap(fw.enc.buf); c > maxKeptEncodeBuffer {
		t.Errorf("kept a %d-byte encode buffer", c)
	}
	if err := fw.WriteMessage(1, fields{payload: []byte("data")}); err != nil {
		t.Fatal(err)
	}
	if fw.enc.payload != nil || fw.vec != nil || fw.arr[0] != nil || fw.arr[1] != nil || fw.arr[2] != nil {
		t.Error("frame writer still references the payload it wrote")
	}
}
