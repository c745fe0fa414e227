// Package sim is a miniature stand-in for the real discrete-event
// engine, just enough surface for the analyzers that key on the
// Engine scheduling API (ordered-map-iter, event-closure-capture).
package sim

// Engine is a stub scheduler.
type Engine struct{}

// After schedules fn d seconds from now.
func (e *Engine) After(d float64, fn func()) {}

// At schedules fn at absolute time t.
func (e *Engine) At(t float64, fn func()) {}

// Tick schedules fn at the current timestamp.
func (e *Engine) Tick(fn func()) {}
