// Package unusedclean uses everything it declares, in each of the ways the
// unused pass counts as a use.
package unusedclean

import "fmt"

// Reader is spelled below, so Source.Read is reached through it.
type Reader interface{ Read() string }

// Source is a Reader.
type Source struct{ Text string }

// Read implements Reader.
func (s *Source) Read() string { return s.Text }

// String is found by fmt, through an interface the module never names.
func (s *Source) String() string { return "source" }

// Options is encoded: its tagged field is read by reflection.
type Options struct {
	Mode string `json:"mode"`
}

// pair is built with an unkeyed literal, which sets every field.
type pair struct{ A, B int }

const limit = 3

var calls int

// Reference is kept on purpose.
//
//u1:allow unused the reference implementation a test compares against
func Reference() int { return limit }

func init() {
	var r Reader = &Source{Text: "x"}
	calls += len(r.Read())
	p := pair{1, 2}
	calls += p.A
	fmt.Sprint(Options{}, limit)
}
