// Package bad contains exactly one violation of every mrlint rule; the
// integration test asserts each is reported, and `go run ./cmd/mrlint
// -C internal/lint/testdata/badmod ./...` demonstrates the non-zero
// exit on a dirty tree.
package bad

import (
	"fmt"
	"math/rand"
	"time"

	"badmod/internal/order"
	"badmod/internal/sim"
)

// Wallclock violates no-wallclock.
func Wallclock() float64 {
	return float64(time.Now().UnixNano()) // want no-wallclock
}

// GlobalRand violates no-global-rand.
func GlobalRand() float64 {
	return rand.Float64() // want no-global-rand
}

// UnsortedIter violates ordered-map-iter: the append target is never
// sorted.
func UnsortedIter(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want ordered-map-iter
	}
	return keys
}

// ScheduleFromMap violates ordered-map-iter via event scheduling.
func ScheduleFromMap(e *sim.Engine, m map[string]float64) {
	for _, d := range m {
		e.After(d, func() {}) // want ordered-map-iter
	}
}

// Counter violates dead-field: hits is kept up to date, but no
// non-test code reads it.
type Counter struct {
	hits int // want dead-field
}

// Hit counts one hit.
func (c *Counter) Hit() { c.hits++ }

// FloatAccum violates float-map-accum: FP addition is not associative,
// so the low-order bits of the sum depend on iteration order.
func FloatAccum(m map[string]float64) float64 {
	sum := 0.0
	for _, v := range m {
		sum += v // want float-map-accum
	}
	return sum
}

// PrintUnsorted violates nondet-flow: the nondeterministic order
// escapes order.Keys and only reaches an output sink here, one package
// and two functions away from the map range.
func PrintUnsorted(m map[string]int) {
	for _, k := range order.Keys(m) {
		fmt.Println(k) // want nondet-flow
	}
}

// lastID records what the scheduled event observed at fire time.
var lastID string

// CaptureMutated violates event-closure-capture: idx is rewritten
// after the event is scheduled, so the closure reads the mutated value
// when it fires, not the value at schedule time.
func CaptureMutated(e *sim.Engine, ids []string) {
	idx := 0
	e.At(5, func() { lastID = ids[idx] }) // want event-closure-capture
	idx = len(ids) - 1
}

// MalformedSuppression carries a directive that names no rule: it
// suppresses nothing and is itself a finding.
func MalformedSuppression() int {
	//mrlint:ignore
	return 42 // want malformed-directive (reported on the directive line)
}

// TestOnlyHelper violates test-only-export: only bad_test.go calls it,
// while cmd/bad uses every other exported name of the fixture.
func TestOnlyHelper() int { return 7 } // want test-only-export
