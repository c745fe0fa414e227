// Command bad is the fixture module's non-test user: it calls every
// exported name of the fixture packages, so test-only-export reports
// only the one deliberate violation (bad.TestOnlyHelper).
package main

import (
	"badmod/internal/bad"
	"badmod/internal/sim"
	"badmod/internal/yarn"
)

func main() {
	e := &sim.Engine{}
	m := map[string]int{"a": 1}

	_ = bad.Wallclock()
	_ = bad.GlobalRand()
	_ = bad.UnsortedIter(m)
	bad.ScheduleFromMap(e, map[string]float64{"a": 1})
	var c bad.Counter
	c.Hit()
	_ = bad.FloatAccum(map[string]float64{"a": 1})
	bad.PrintUnsorted(m)
	bad.CaptureMutated(e, []string{"x"})
	_ = bad.MalformedSuppression()

	e.Tick(func() {})
	e.Fanout(nil)
	var log yarn.EventLog
	log.Log("x")
	var s yarn.Scratch
	s.Push("x")
	s.Reset()
}
