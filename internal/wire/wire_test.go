package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestWriterReaderRoundTrip(t *testing.T) {
	w := NewWriter(64)
	w.Uvarint(0)
	w.Uvarint(300)
	w.Uvarint(math.MaxUint64)
	w.Byte(0xAB)
	w.Bool(true)
	w.Bool(false)
	w.Bytes_([]byte{1, 2, 3})
	w.String("ubuntuone")
	w.String("")

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
	if r.Err() != nil {
		t.Fatalf("unexpected error: %v", r.Err())
	}
	if r.Remaining() != 0 {
		t.Errorf("remaining = %d", r.Remaining())
	}
}

// TestRawAdoptsConsumedSpan takes the span a run of reads consumed and
// appends it raw to another Writer: the result encodes exactly as the fields
// written one by one.
func TestRawAdoptsConsumedSpan(t *testing.T) {
	var src Writer
	src.Uvarint(7)
	src.String("span")
	src.Bool(true)
	src.Uvarint(300)

	r := NewReader(src.Bytes())
	r.Uvarint()
	before := len(r.Consumed())
	_ = r.String()
	_ = r.Bool()
	span := r.Consumed()[before:]

	var raw, want Writer
	raw.Raw(span)
	want.String("span")
	want.Bool(true)
	if !bytes.Equal(raw.Bytes(), want.Bytes()) {
		t.Fatalf("raw span %x, fields %x", raw.Bytes(), want.Bytes())
	}
	if got := r.Uvarint(); got != 300 || r.Err() != nil || len(r.Consumed()) != len(src.Bytes()) {
		t.Errorf("after the span: %d, err %v, consumed %d of %d", got, r.Err(), len(r.Consumed()), len(src.Bytes()))
	}
}

func TestReaderStickyError(t *testing.T) {
	r := NewReader([]byte{}) // empty
	_ = r.Uvarint()
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("err = %v", r.Err())
	}
	// All subsequent reads return zero values without panicking.
	if r.Uvarint() != 0 || r.Byte() != 0 || r.Bool() || r.Bytes() != nil || r.String() != "" {
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
	f := func(u uint64, s string, b []byte) bool {
		w := NewWriter(32)
		w.Uvarint(u)
		w.String(s)
		w.Bytes_(b)
		r := NewReader(w.Bytes())
		gu := r.Uvarint()
		gs := r.String()
		gb := r.Bytes()
		if r.Err() != nil {
			return false
		}
		return gu == u && gs == s && bytes.Equal(gb, b) && r.Remaining() == 0
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

// splitReader hands out at most the next of its sizes per Read, cycling
// through them, and counts its Read calls.
type splitReader struct {
	r     io.Reader
	sizes []byte
	reads int
}

func (s *splitReader) Read(p []byte) (int, error) {
	if len(s.sizes) > 0 {
		p = p[:min(len(p), int(s.sizes[s.reads%len(s.sizes)])+1)]
	}
	s.reads++
	return s.r.Read(p)
}

// FuzzReadFrame feeds arbitrary bytes to ReadFrame, up to four frames back to
// back from one stream, each payload given back before the next read, as a
// connection loop does: it must never panic, must refuse an oversized frame
// having read its header and nothing else, and every frame it accepts must
// re-encode to exactly the bytes it consumed. A FrameReader over the same
// stream, read in pieces of the fuzzed sizes, must return the same frames
// and the same errors, refuse an oversized frame without allocating its
// payload, and give its read buffer back after an error.
func FuzzReadFrame(f *testing.F) {
	var golden bytes.Buffer
	WriteFrame(&golden, 1, []byte("storage_done")) //nolint:errcheck
	f.Add(golden.Bytes(), []byte{})
	f.Add([]byte{0, 0, 0, 0, 2}, []byte{0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 0}, []byte{2})
	f.Add([]byte{0, 0, 0, 9, 1, 'x'}, []byte{3, 0})
	var run bytes.Buffer
	for _, n := range []int{12, 600, 0, 3000} {
		WriteFrame(&run, byte(n), bytes.Repeat([]byte{byte(n)}, n)) //nolint:errcheck
	}
	f.Add(run.Bytes(), []byte{})
	f.Add(run.Bytes(), []byte{6, 255, 0, 100})
	f.Fuzz(func(t *testing.T, in, sizes []byte) {
		src := &countingReader{r: bytes.NewReader(in)}
		fr := NewFrameReader(&splitReader{r: bytes.NewReader(in), sizes: sizes})
		for frame := 0; frame < 4; frame++ {
			at := src.n
			msgType, payload, err := ReadFrame(src)
			oversized := false
			if rest := in[at:]; len(rest) >= frameHeaderSize && binary.BigEndian.Uint32(rest) > MaxFrameSize {
				oversized = true
				if !errors.Is(err, ErrFrameTooLarge) || src.n-at != frameHeaderSize {
					t.Fatalf("frame %d oversized: err %v after %d bytes", frame, err, src.n-at)
				}
			}
			var before, after runtime.MemStats
			if oversized {
				runtime.ReadMemStats(&before)
			}
			gotType, got, gotErr := fr.ReadFrame()
			if oversized {
				runtime.ReadMemStats(&after)
				if grew := after.TotalAlloc - before.TotalAlloc; grew >= MaxFrameSize {
					t.Fatalf("frame %d oversized: the FrameReader allocated %d bytes", frame, grew)
				}
			}
			if (gotErr == nil) != (err == nil) || err != nil && !errors.Is(gotErr, err) {
				t.Fatalf("frame %d: FrameReader error %v, ReadFrame error %v", frame, gotErr, err)
			}
			if err != nil {
				if fr.buf != nil {
					t.Fatalf("frame %d: the FrameReader holds a buffer after %v", frame, err)
				}
				return
			}
			if gotType != msgType || !bytes.Equal(got, payload) {
				t.Fatalf("frame %d: FrameReader read type %d %x, ReadFrame type %d %x", frame, gotType, got, msgType, payload)
			}
			var out bytes.Buffer
			if err := WriteFrame(&out, msgType, payload); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), in[at:src.n]) {
				t.Fatalf("frame %d re-encoded %x, consumed %x", frame, out.Bytes(), in[at:src.n])
			}
			ReleaseFrame(payload, nil)
			ReleaseFrame(got, nil)
		}
	})
}

// A FrameReader makes one Read for frames that arrive together, copies what
// it buffered of a larger frame and reads the rest in place, gives its read
// buffer back (poisoned under the race detector) once it is drained, and
// after warm-up allocates nothing. ReadFrame makes two Reads per frame.
func TestFrameReaderOneReadPerFrame(t *testing.T) {
	small, large := frameOf(t, 200, 's'), frameOf(t, 3*readBufSize, 'L')
	src := &splitReader{r: bytes.NewReader(append(small, large...))}
	fr := NewFrameReader(src)
	_, payload, err := fr.ReadFrame()
	if err != nil || !bytes.Equal(payload, small[frameHeaderSize:]) || src.reads != 1 {
		t.Fatalf("the first frame: %d bytes, err %v, after %d reads; want 1", len(payload), err, src.reads)
	}
	ReleaseFrame(payload, nil)
	held := fr.buf
	if _, payload, err = fr.ReadFrame(); err != nil || !bytes.Equal(payload, large[frameHeaderSize:]) || src.reads != 2 {
		t.Fatalf("the %d-byte frame: %d bytes, err %v, after %d reads in all; want 2", len(large), len(payload), err, src.reads)
	}
	ReleaseFrame(payload, nil)
	if fr.buf != nil {
		t.Error("a drained reader holds its read buffer")
	}
	if !poolsKeep() && bytes.Count(held[:], held[:1]) != readBufSize {
		t.Error("a released read buffer was not poisoned")
	}

	src.reads = 0
	src.r = bytes.NewReader(small)
	if _, _, err := ReadFrame(src); err != nil || src.reads != 2 {
		t.Errorf("ReadFrame: err %v after %d reads; want 2", err, src.reads)
	}

	if !poolsKeep() {
		return // the race detector drops pooled buffers on purpose
	}
	rd := bytes.NewReader(small)
	fr = NewFrameReader(rd)
	if n := testing.AllocsPerRun(100, func() {
		rd.Reset(small)
		_, payload, err := fr.ReadFrame()
		if err != nil || len(payload) != 200 {
			t.Fatalf("read %d bytes, err %v", len(payload), err)
		}
		ReleaseFrame(payload, nil)
	}); n != 0 {
		t.Errorf("reading and giving back a 200-byte frame: %v allocs", n)
	}
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
		if !bytes.Equal(joined.Bytes(), plain.Bytes()) {
			t.Errorf("payload %q: joined %x, want %x", payload, joined.Bytes(), plain.Bytes())
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

// A FrameWriter keeps no buffer at all between frames: its encode buffer
// goes back to the shared pool after each write, one that grew past
// maxPooledFrame is not pooled, and a written payload stays referenced
// nowhere.
func TestFrameWriterKeepsNoLargeBuffer(t *testing.T) {
	fw := NewFrameWriter(io.Discard)
	if err := fw.WriteMessage(1, fields{before: string(make([]byte, 4*maxPooledFrame))}); err != nil {
		t.Fatal(err)
	}
	if fw.enc.buf != nil {
		t.Errorf("kept a %d-byte encode buffer", cap(fw.enc.buf))
	}
	for h, _ := encodeBufs.Get().(*frameBuf); h != nil; h, _ = encodeBufs.Get().(*frameBuf) {
		if cap(h.b) > maxPooledFrame {
			t.Errorf("pooled a %d-byte encode buffer", cap(h.b))
		}
	}
	if err := fw.WriteMessage(1, fields{payload: []byte("data")}); err != nil {
		t.Fatal(err)
	}
	if fw.enc.buf != nil || fw.enc.payload != nil || fw.vec != nil || fw.arr[0] != nil || fw.arr[1] != nil || fw.arr[2] != nil {
		t.Error("frame writer still references a buffer or the payload it wrote")
	}
	if err := fw.WriteMessage(1, fields{payload: make([]byte, MaxFrameSize)}); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v", err)
	}
	if fw.enc.buf != nil || fw.enc.payload != nil {
		t.Error("a refused frame left its encode buffer or payload behind")
	}
}

// poolsKeep reports whether a sync.Pool hands back what was just put into
// it. It does, except under the race detector, which drops a quarter of all
// puts on purpose: there every pooled slot shows up as allocations and a
// count of them means nothing.
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

// frameOf returns one encoded frame of type 1 whose payload is n bytes of b.
func frameOf(t testing.TB, n int, b byte) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := WriteFrame(&out, 1, bytes.Repeat([]byte{b}, n)); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// After warm-up a frame costs no allocation either way: WriteMessage encodes
// into a pooled buffer, and a read-and-give-back loop reads into one.
func TestFramesAllocateNothing(t *testing.T) {
	if !poolsKeep() {
		t.Skip("the race detector drops pooled buffers on purpose")
	}
	fw := NewFrameWriter(io.Discard)
	var msg Message = fields{before: string(make([]byte, 4<<10))}
	if n := testing.AllocsPerRun(100, func() {
		if err := fw.WriteMessage(1, msg); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("WriteMessage of a 4 KB message: %v allocs", n)
	}
	for _, size := range []int{50, 6 << 10} {
		stream := frameOf(t, size, 7)
		rd := bytes.NewReader(stream)
		if n := testing.AllocsPerRun(100, func() {
			rd.Reset(stream)
			_, payload, err := ReadFrame(rd)
			if err != nil || len(payload) != size {
				t.Fatalf("read %d bytes, err %v", len(payload), err)
			}
			ReleaseFrame(payload, nil)
		}); n != 0 {
			t.Errorf("reading and giving back a %d-byte frame: %v allocs", size, n)
		}
	}
}

// A recycled buffer that once held a longer frame returns exactly the new
// frame's bytes, and Data kept out of a frame survives the frame's reuse.
func TestRecycledFrameHoldsOnlyItsOwnBytes(t *testing.T) {
	_, long, err := ReadFrame(bytes.NewReader(frameOf(t, 4000, 'L')))
	if err != nil {
		t.Fatal(err)
	}
	kept := ReleaseFrame(long, long[100:200])
	_, short, err := ReadFrame(bytes.NewReader(frameOf(t, 2100, 's')))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(short, bytes.Repeat([]byte{'s'}, 2100)) {
		t.Errorf("a 2100-byte frame read back %d bytes, %q...", len(short), short[:8])
	}
	if !bytes.Equal(kept, bytes.Repeat([]byte{'L'}, 100)) {
		t.Errorf("kept Data changed with its frame's reuse: %q...", kept[:8])
	}
	ReleaseFrame(short, nil)
}

// A frame above maxPooledFrame is read into a buffer of its own, which
// ReleaseFrame neither copies out of nor pools; and a frame cut short is
// dropped, never pooled half-filled.
func TestFramesBeyondThePoolStayOut(t *testing.T) {
	top := &frameBufs[frameClasses-1]
	for top.Get() != nil {
	}
	_, big, err := ReadFrame(bytes.NewReader(frameOf(t, maxPooledFrame+1, 'B')))
	if err != nil || cap(big) != maxPooledFrame+1 {
		t.Fatalf("read a %d-byte buffer, err %v", cap(big), err)
	}
	if kept := ReleaseFrame(big, big[1:]); &kept[0] != &big[1] {
		t.Error("Data out of a frame above the ceiling was copied")
	}
	if h, _ := top.Get().(*frameBuf); h != nil {
		t.Errorf("pooled a %d-byte frame", cap(h.b))
	}

	cut := frameOf(t, 3000, 'h')
	if _, _, err := ReadFrame(bytes.NewReader(cut[:2000])); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want truncated", err)
	}
	if h, _ := frameBufs[frameClass(3000)].Get().(*frameBuf); h != nil && bytes.Contains(h.b[:cap(h.b)], []byte("hhhh")) {
		t.Error("a truncated frame's buffer was pooled")
	}
}
