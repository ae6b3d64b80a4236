package protocol

import "u1/internal/wire"

// encode renders a message body (without the frame header) into a fresh
// buffer, the encoding the servers' frame writer sends.
func encode(m wire.Message) []byte {
	w := wire.NewWriter(128)
	m.Encode(w)
	return w.Bytes()
}
