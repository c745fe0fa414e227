package sim

// Engine, event and seed views that only tests use.

// At reports the simulation time this event is scheduled for.
func (e *Event) At() float64 { return e.key.at }

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e.canceled }

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Stop halts the ticker (idempotent).
func (t *Ticker) Stop() { t.stopped = true }
