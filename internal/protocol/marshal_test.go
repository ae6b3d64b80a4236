package protocol

import (
	"reflect"
	"slices"
	"testing"

	"u1/internal/wire"
)

// encode renders a message body (without the frame header) into a fresh
// buffer, the encoding the servers' frame writer sends.
func encode(m wire.Message) []byte {
	w := wire.NewWriter(128)
	m.Encode(w)
	return w.Bytes()
}

// listOf builds a listing of the given entries in memory of its own.
func listOf(entries ...DeltaEntry) DeltaList {
	var w DeltaWriter
	for _, e := range entries {
		w.Add(e.Node, e.Deleted)
	}
	return w.List()
}

// entriesOf reads a listing back through its cursor, names included, and
// fails t unless the cursor yields exactly Len entries (it stops early at one
// that does not decode).
func entriesOf(t testing.TB, l DeltaList) []DeltaEntry {
	t.Helper()
	var out []DeltaEntry
	var e DeltaEntry
	c := l.Cursor()
	for {
		name, ok := c.Next(&e)
		if !ok {
			break
		}
		e.Node.Name = string(name)
		out = append(out, e)
	}
	if len(out) != l.Len() {
		t.Fatalf("listing of %d entries read %d", l.Len(), len(out))
	}
	return out
}

// sameResponse reports whether two responses agree field by field and their
// listings entry by entry: reflect.DeepEqual on a listing compares the
// buffers it lies in, which a decode does not reproduce.
func sameResponse(t testing.TB, a, b *Response) bool {
	t.Helper()
	x, y := *a, *b
	x.Deltas, y.Deltas = DeltaList{}, DeltaList{}
	x.home, y.home = nil, nil
	return (a.home == a) == (b.home == b) && reflect.DeepEqual(x, y) &&
		slices.Equal(entriesOf(t, a.Deltas), entriesOf(t, b.Deltas))
}
