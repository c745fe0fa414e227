// Package a holds one case of the test-only-export rule per
// declaration. Each line marked "want" is reported; every other
// exported name is used by a non-test file, or is out of the rule's
// scope.
package a

// OnlyTests is called from a_test.go alone.
func OnlyTests() int { return 1 } // want test-only-export

// ExtOnly is called from the external test package alone.
func ExtOnly() int { return 2 } // want test-only-export

// UsedByB is called from package b.
func UsedByB() int { return 3 }

// UsedByCmd is called from cmd/tool.
func UsedByCmd() int { return 4 }

// Recurse calls only itself outside tests.
func Recurse(n int) int { // want test-only-export
	if n == 0 {
		return 0
	}
	return Recurse(n - 1)
}

// Limit is read by tests alone.
const Limit = 3 // want test-only-export

// Global is read by tests alone.
var Global = 5 // want test-only-export

// Kept has no user at all and is kept on purpose.
//
//mrlint:ignore test-only-export fixture: the directive suppresses the finding
func Kept() {}

// Thing is used by package b, which needs its Area method.
type Thing struct {
	// Unread is a field nothing reads; fields are out of scope.
	Unread int
	side   float64
}

// New is called from package b.
func New(side float64) Thing { return Thing{side: side} }

// String is reached through fmt, never by name.
func (t Thing) String() string { return "thing" }

// Area implements b.Shape.
func (t Thing) Area() float64 { return t.side * t.side }

// Grow is called from a_test.go alone.
func (t *Thing) Grow() { t.side++ } // want test-only-export

// Orphan is used by tests alone. Its methods are not reported on
// their own: the finding on the type covers them.
type Orphan struct{} // want test-only-export

// Poke is called from a_test.go alone.
func (Orphan) Poke() {}

// hidden is unexported, so neither it nor its methods are checked.
type hidden struct{}

// Method is exported on an unexported type.
func (hidden) Method() {}

func helper() int { return hidden{}.value() }

func (hidden) value() int { return 0 }
