package protocol

import (
	"crypto/sha1"
	"encoding/hex"
	"fmt"

	"u1/internal/wire"
)

// The servers encode responses and pushes straight into a wire.FrameWriter
// and the TCP client decodes into recycled slots; the golden and fuzz tests
// want the standalone forms below.

// ParseHash decodes a 40-char hex string into a Hash.
func ParseHash(s string) (Hash, error) {
	var h Hash
	b, err := hex.DecodeString(s)
	if err != nil {
		return h, fmt.Errorf("protocol: bad hash %q: %w", s, err)
	}
	if len(b) != sha1.Size {
		return h, fmt.Errorf("protocol: hash %q has %d bytes, want %d", s, len(b), sha1.Size)
	}
	copy(h[:], b)
	return h, nil
}

// Marshal encodes the response body (without the frame header) into a fresh
// buffer; Data is copied into it.
func (p *Response) Marshal() []byte {
	w := wire.NewWriter(128)
	p.Encode(w)
	return w.Bytes()
}

// UnmarshalResponse decodes a response body into a fresh response. The
// response's Data aliases buf: ownership of buf passes to the returned
// message.
func UnmarshalResponse(buf []byte) (*Response, error) {
	p := &Response{}
	if err := p.Decode(buf); err != nil {
		return nil, err
	}
	return p, nil
}

// Marshal encodes the push body.
func (n *Push) Marshal() []byte {
	w := wire.NewWriter(64)
	n.Encode(w)
	return w.Bytes()
}
