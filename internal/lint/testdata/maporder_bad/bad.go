// Package mapbad leaks map iteration order into every sink the maporder pass
// recognizes: escaping appends, journal records, hashes, and log appenders.
package mapbad

import "crypto/sha1"

type store struct{}

func (store) mutate(v int) {}

type deltaLog struct{}

func (deltaLog) Append(v int) {}

// Collect appends map values to an escaping slice without sorting.
func Collect(m map[int]int) []int {
	var out []int
	for _, v := range m {
		out = append(out, v) // want: maporder: append to out
	}
	return out
}

// Mutate emits journal records in iteration order.
func Mutate(s store, m map[int]int) {
	for k := range m {
		s.mutate(k) // want: maporder: emits journal records
	}
}

// Fingerprint feeds a hash in iteration order; hash.Hash is an interface, so
// this checks the duck-typed method-set probe through interfaces.
func Fingerprint(m map[int]string) []byte {
	h := sha1.New()
	for _, v := range m {
		h.Write([]byte(v)) // want: maporder: feeds a hash in map iteration order
	}
	return h.Sum(nil)
}

// LogAll appends log records in iteration order.
func LogAll(l deltaLog, m map[int]int) {
	for k := range m {
		l.Append(k) // want: maporder: appends log records in map iteration order
	}
}
