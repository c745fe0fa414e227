// Package b is a non-test user of package a from another package, and
// declares the interface a.Thing implements.
package b

import (
	"fmt"

	"testonly/internal/a"
)

// Shape is implemented by a.Thing.
type Shape interface{ Area() float64 }

// Describe uses a.New, a.UsedByB and a.Thing through Shape.
func Describe() string {
	var s Shape = a.New(float64(a.UsedByB()))
	return fmt.Sprint(s.Area())
}
