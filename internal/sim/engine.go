// Package sim provides a deterministic discrete-event simulation engine.
//
// All simulated time is in seconds, represented as float64. Events
// scheduled for the same instant fire in the order they were scheduled,
// which makes every simulation bit-for-bit reproducible given the same
// inputs and seed.
package sim

import (
	"fmt"
	"math"
)

// Key is a place in the engine's firing order: a time, then a
// sequence number that breaks ties in scheduling order. Stamp issues
// keys, each with a fresh sequence number; the zero Key, which Stamp
// never returns, stands for no key.
type Key struct {
	at  float64
	seq uint64
}

// Before reports whether k fires ahead of o. The zero Key orders after
// every stamped key, so the least of a set of keys, some of them zero,
// is the earliest stamped one.
func (k Key) Before(o Key) bool {
	if k.seq == 0 || o.seq == 0 {
		return o.seq == 0 && k.seq != 0
	}
	return k.at < o.at || (k.at == o.at && k.seq < o.seq)
}

// Event is a scheduled callback. It can be canceled before it fires.
//
// Ownership: once an event has fired, the engine may recycle the Event
// value for a later At/After/AtKey call (the free list keeps the hot
// schedule→fire path allocation-free). Callers must therefore drop
// their reference to an event after it fires and must not Cancel it; a
// canceled-but-never-fired event is never recycled, so canceling it
// again remains a safe no-op.
type Event struct {
	key      Key
	fn       func()
	index    int // position in the engine's heap, -1 when not queued
	canceled bool
}

// eventHeap is the engine's binary min-heap of queued events ordered by
// key. Sequence numbers are unique, so the order is total and the pop
// sequence is the same as any other correct heap's. The methods are
// concrete (not container/heap's interface calls) because every
// scheduling call and every fired event goes through them; each keeps
// Event.index in step with the event's position.
type eventHeap []*Event

// before reports whether a is ordered ahead of b. Queued keys are never
// zero, so this is Key.Before without its zero-key test.
func before(a, b *Event) bool {
	return a.key.at < b.key.at || (a.key.at == b.key.at && a.key.seq < b.key.seq)
}

func (h *eventHeap) push(ev *Event) {
	ev.index = len(*h)
	*h = append(*h, ev)
	h.up(ev.index)
}

// pop removes and returns the earliest event.
func (h *eventHeap) pop() *Event {
	return h.remove(0)
}

// remove takes out the event at position i.
func (h *eventHeap) remove(i int) *Event {
	old := *h
	n := len(old) - 1
	ev := old[i]
	if i != n {
		old[i] = old[n]
		old[i].index = i
	}
	old[n] = nil
	*h = old[:n]
	if i != n {
		h.fix(i)
	}
	ev.index = -1
	return ev
}

// fix restores the heap order after the key at position i changed.
func (h eventHeap) fix(i int) {
	if !h.down(i) {
		h.up(i)
	}
}

func (h eventHeap) up(j int) {
	ev := h[j]
	for j > 0 {
		i := (j - 1) / 2
		p := h[i]
		if !before(ev, p) {
			break
		}
		h[j] = p
		p.index = j
		j = i
	}
	h[j] = ev
	ev.index = j
}

// down sifts the event at position i0 toward the leaves and reports
// whether it moved.
func (h eventHeap) down(i0 int) bool {
	n := len(h)
	ev := h[i0]
	i := i0
	for {
		c := 2*i + 1
		if c >= n || c < 0 {
			break
		}
		if r := c + 1; r < n && before(h[r], h[c]) {
			c = r
		}
		if !before(h[c], ev) {
			break
		}
		h[i] = h[c]
		h[i].index = i
		i = c
	}
	h[i] = ev
	ev.index = i
	return i > i0
}

// Engine is a deterministic discrete-event simulator: one event heap
// ordered by key and one free list of fired events. It is not
// safe for concurrent use; all model code runs inside event callbacks
// on the goroutine that calls Run, strictly in key order.
type Engine struct {
	now float64
	// seq is the last sequence number issued; the first is 1, so no
	// stamped Key is zero.
	seq     uint64
	stopped bool
	// processed counts events that have fired, useful for tests and
	// runaway detection.
	processed uint64
	// MaxEvents aborts Run with a panic when the event count exceeds it.
	// Zero means no limit.
	MaxEvents uint64

	pq   eventHeap
	free []*Event
}

// maxFreeEvents bounds the free list so that a burst of events does not
// pin memory for the rest of the run.
const maxFreeEvents = 1 << 14

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Processed returns the number of events that have fired so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Stamp validates t as a time to schedule at and consumes one sequence
// number, returning the key At(t, fn) would queue fn under. Stamping in
// the past panics, since it indicates a broken model rather than a
// recoverable condition. AtKey and Rekey queue an event under a stamped
// key without consuming another, so a caller can fix an event's place
// in the order when its time is known and queue it later, or never. An
// event queued under a key fires exactly where an At call made at the
// key's stamping would have put it among all other events.
func (e *Engine) Stamp(t float64) Key {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %.9f before now %.9f", t, e.now))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("sim: scheduling event at non-finite time %v", t))
	}
	e.seq++
	return Key{at: t, seq: e.seq}
}

// At schedules fn at absolute time t. It is AtKey(Stamp(t), fn), so a
// past or non-finite t panics.
func (e *Engine) At(t float64, fn func()) *Event {
	return e.push(e.Stamp(t), fn)
}

// AtKey schedules fn under k, a key Stamp returned. It consumes no
// sequence number. The caller owns k's uniqueness: queuing two events
// under one key leaves their order to the heap. A zero key, or one
// whose time is already past, panics.
func (e *Engine) AtKey(k Key, fn func()) *Event {
	e.checkKey(k)
	return e.push(k, fn)
}

// Rekey moves a still-queued event to k, a key Stamp returned, and
// makes fn its callback. It consumes no sequence number: Rekey(ev,
// Stamp(t), fn) is Cancel(ev) followed by At(t, fn), but reuses the
// Event instead of abandoning it (canceled events are never recycled;
// see Cancel). Rekeying a fired or canceled event panics, and so does a
// key AtKey would refuse.
func (e *Engine) Rekey(ev *Event, k Key, fn func()) {
	if ev == nil || ev.canceled || ev.index < 0 {
		panic("sim: Rekey of a fired or canceled event")
	}
	e.checkKey(k)
	ev.key, ev.fn = k, fn
	e.pq.fix(ev.index)
}

// checkKey panics unless k is a stamped key whose time is not past.
func (e *Engine) checkKey(k Key) {
	if k.seq == 0 {
		panic("sim: queuing an event under the zero key")
	}
	if k.at < e.now {
		panic(fmt.Sprintf("sim: queuing event at %.9f before now %.9f", k.at, e.now))
	}
}

// push queues fn under k, reusing a fired event when the free list has
// one.
func (e *Engine) push(k Key, fn func()) *Event {
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.key, ev.fn, ev.canceled = k, fn, false
	} else {
		ev = &Event{key: k, fn: fn}
	}
	e.pq.push(ev)
	return ev
}

// AtEach schedules fn(i) at times[i] for every i: the same firings, in
// the same order and under the same (time, seq) keys, as one At call
// per time in index order, but with only the next time of the series
// queued. The call reserves len(times) consecutive sequence numbers,
// exactly what those At calls would consume; when a series event
// fires it queues its successor under the successor's reserved key,
// then runs fn. Times must be finite, not before now and strictly
// increasing, or AtEach panics before scheduling anything. The engine
// keeps times until the series has fired, so the caller must not
// modify it. A series cannot be canceled.
func (e *Engine) AtEach(times []float64, fn func(i int)) {
	for i, t := range times {
		if math.IsNaN(t) || math.IsInf(t, 0) {
			panic(fmt.Sprintf("sim: scheduling series event %d at non-finite time %v", i, t))
		}
		if t < e.now {
			panic(fmt.Sprintf("sim: scheduling series event %d at %.9f before now %.9f", i, t, e.now))
		}
		if i > 0 && t <= times[i-1] {
			panic(fmt.Sprintf("sim: series time %d (%.9f) is not after time %d (%.9f)", i, t, i-1, times[i-1]))
		}
	}
	if len(times) == 0 {
		return
	}
	s := &series{eng: e, times: times, seq0: e.seq + 1, fn: fn}
	e.seq += uint64(len(times))
	s.step = s.fire
	e.push(Key{at: times[0], seq: s.seq0}, s.step)
}

// series is one AtEach registration: fn(next) fires at times[next]
// under the reserved sequence number seq0+next.
type series struct {
	eng   *Engine
	times []float64
	seq0  uint64
	next  int
	fn    func(i int)
	step  func() // s.fire, bound once so each firing reuses it
}

// fire runs one series event: it queues the successor, then calls fn.
func (s *series) fire() {
	i := s.next
	s.next++
	if s.next < len(s.times) {
		s.eng.push(Key{at: s.times[s.next], seq: s.seq0 + uint64(s.next)}, s.step)
	}
	s.fn(i)
}

// After schedules fn d seconds from now. Negative d panics.
func (e *Engine) After(d float64, fn func()) *Event { return e.At(e.now+d, fn) }

// Cancel removes ev from the queue. Canceling an already-fired or
// already-canceled event is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.canceled {
		return
	}
	ev.canceled = true
	if ev.index >= 0 {
		e.pq.remove(ev.index)
	}
}

// Tick schedules fn every interval seconds, starting one interval from
// now. fn returning false stops the ticker.
func (e *Engine) Tick(interval float64, fn func() bool) *Ticker {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: non-positive tick interval %v", interval))
	}
	t := &Ticker{eng: e, interval: interval, fn: fn}
	t.schedule()
	return t
}

// Pending returns the number of queued (not yet fired) events. A
// series registered with AtEach counts as one event until its last
// time fires, since only its next time is queued.
//
//mrlint:ignore test-only-export the queue length the sim, yarn and workload tests assert the one-queued-event AtEach contract with
func (e *Engine) Pending() int { return len(e.pq) }

// Run processes events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.RunUntil(math.Inf(1))
}

// RunUntil processes events with time <= t, then sets the clock to t if
// the queue drained earlier than t (and t is finite).
func (e *Engine) RunUntil(t float64) {
	e.stopped = false
	for len(e.pq) > 0 && !e.stopped {
		ev := e.pq[0]
		if ev.key.at > t {
			break
		}
		e.pq.pop()
		e.now = ev.key.at
		e.processed++
		if e.MaxEvents > 0 && e.processed > e.MaxEvents {
			panic(fmt.Sprintf("sim: exceeded MaxEvents=%d (runaway model?)", e.MaxEvents))
		}
		fn := ev.fn
		ev.fn = nil // release the closure before running it
		fn()
		// The event has fired and its closure is detached; recycle it
		// (see the Event ownership contract).
		if len(e.free) < maxFreeEvents {
			e.free = append(e.free, ev)
		}
	}
	if !math.IsInf(t, 1) && t > e.now && !e.stopped {
		e.now = t
	}
}

// Ticker invokes fn every interval seconds until Stop is called or fn
// returns false. It exists because a periodic event chain keeps the
// event queue non-empty: components must stop their tickers when the
// observed work completes or Run never returns.
type Ticker struct {
	eng      *Engine
	interval float64
	fn       func() bool
	stopped  bool
}

func (t *Ticker) schedule() {
	t.eng.After(t.interval, func() {
		if t.stopped {
			return
		}
		if !t.fn() {
			t.stopped = true
			return
		}
		t.schedule()
	})
}
