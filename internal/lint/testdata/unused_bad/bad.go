// Package unusedbad declares what the unused pass reports: code that only
// tests, or nothing at all, reach.
package unusedbad

// OnlyTests is called from bad_test.go alone, and test files are no callers.
func OnlyTests() int { return 1 } // want: unused: func OnlyTests

// orphan is called by nothing.
func orphan() {} // want: unused: func orphan

// Config's tagged field is read by an encoder; nothing reads Limit.
type Config struct {
	Name  string `json:"name"`
	Limit int    // want: unused: field Config.Limit
}

// Shape is spelled below, so Circle.Area is reached through it; nothing
// reaches Circle.Perimeter.
type Shape interface{ Area() float64 }

// Circle is a Shape.
type Circle struct{ R float64 }

// Area implements Shape.
func (c Circle) Area() float64 { return 3 * c.R * c.R }

// Perimeter has no caller and no interface to reach it.
func (c Circle) Perimeter() float64 { return 6 * c.R } // want: unused: method Perimeter

// Reference is kept on purpose: the annotation suppresses its finding.
//
//u1:allow unused the reference implementation a test compares against
func Reference() int { return 2 }

// Helper is called by init, so its annotation suppresses nothing.
//
//u1:allow unused kept for a caller that has since appeared
func Helper() int { return 3 } // want-above: allow: stale u1:allow unused annotation

func init() {
	var s Shape = Circle{R: float64(Helper())}
	_ = s.Area()
	_ = Config{Name: "x"}
}
