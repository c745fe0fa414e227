package sim

import (
	"fmt"
	"math"
)

// Shard is one event queue of a sharded Engine plus its scheduling
// API. Model components hold the shard that owns their state (a rack's
// nodes hold the rack shard; cross-cutting actors hold the system
// shard) and schedule through it, which is what "declaring shard
// affinity" means: every At/After/Tick/Reschedule/Cancel call names
// the shard whose state the callback touches.
//
// Affinity is declarative — the engine fires events in global
// (time, seq) order whatever the shard layout — and the
// cross-shard-event lint rule keeps it honest: a callback scheduled on
// a shard may only touch that shard's state, and talks to other shards
// through Send.
type Shard struct {
	eng  *Engine
	id   ShardID
	name string

	pq   eventHeap
	free []*Event

	// pos is this shard's position in the engine's index heap, -1 when
	// idle (empty queue). minAt/minSeq cache the queue head's key; the
	// index heap compares cached keys only.
	pos    int
	minAt  float64
	minSeq uint64
}

// ID returns the shard's identifier (0 is the system shard).
func (s *Shard) ID() ShardID { return s.id }

// Name returns the label the shard was created with.
func (s *Shard) Name() string { return s.name }

// Engine returns the owning engine.
func (s *Shard) Engine() *Engine { return s.eng }

// Now returns the current simulation time (the engine clock).
func (s *Shard) Now() float64 { return s.eng.now }

// nextSeq consumes one scheduling sequence number.
func (s *Shard) nextSeq() uint64 {
	seq := s.eng.seq
	s.eng.seq++
	return seq
}

// take pops a recycled event from this shard's free list or allocates
// a fresh one. Recycled events are reused only by their owning shard.
func (s *Shard) take(t float64, seq uint64, fn func()) *Event {
	if n := len(s.free); n > 0 {
		ev := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		ev.at, ev.seq, ev.fn, ev.canceled = t, seq, fn, false
		return ev
	}
	return &Event{at: t, seq: seq, fn: fn, shard: s}
}

// At schedules fn on this shard at absolute time t. Scheduling in the
// past panics, since it indicates a broken model rather than a
// recoverable condition.
func (s *Shard) At(t float64, fn func()) *Event {
	if now := s.Now(); t < now {
		panic(fmt.Sprintf("sim: scheduling event at %.9f before now %.9f", t, now))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("sim: scheduling event at non-finite time %v", t))
	}
	ev := s.take(t, s.nextSeq(), fn)
	s.pq.push(ev)
	s.eng.syncShard(s)
	return ev
}

// After schedules fn on this shard d seconds from now. Negative d
// panics.
func (s *Shard) After(d float64, fn func()) *Event {
	return s.At(s.Now()+d, fn)
}

// Reschedule moves a still-queued event of this shard to absolute time
// t, keeping its callback and its owning shard (events never migrate
// shards; see the Event ownership contract). Semantics match
// Engine.Reschedule.
func (s *Shard) Reschedule(ev *Event, t float64) *Event {
	if ev == nil || ev.canceled || ev.index < 0 {
		panic("sim: Reschedule of a fired or canceled event")
	}
	if ev.shard != s {
		panic(fmt.Sprintf("sim: Reschedule on shard %q of an event owned by shard %q", s.name, ev.shard.name))
	}
	if now := s.Now(); t < now {
		panic(fmt.Sprintf("sim: rescheduling event at %.9f before now %.9f", t, now))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("sim: rescheduling event at non-finite time %v", t))
	}
	ev.at = t
	ev.seq = s.nextSeq()
	s.pq.fix(ev.index)
	s.eng.syncShard(s)
	return ev
}

// Cancel removes ev from this shard's queue. Canceling an
// already-fired or already-canceled event is a no-op; canceling an
// event owned by a different shard panics (cross-shard cancellation
// must be routed through Send to the owning shard).
func (s *Shard) Cancel(ev *Event) {
	if ev == nil || ev.canceled {
		return
	}
	if ev.shard != s {
		panic(fmt.Sprintf("sim: Cancel on shard %q of an event owned by shard %q", s.name, ev.shard.name))
	}
	ev.canceled = true
	if ev.index >= 0 {
		s.pq.remove(ev.index)
		s.eng.syncShard(s)
	}
}

// Tick schedules fn on this shard every interval seconds, starting one
// interval from now. fn returning false stops the ticker.
func (s *Shard) Tick(interval float64, fn func() bool) *Ticker {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: non-positive tick interval %v", interval))
	}
	t := &Ticker{shard: s, interval: interval, fn: fn}
	t.schedule()
	return t
}

// Send schedules fn on shard dst, delay seconds from now: exactly
// dst.At(now+delay, fn). It is the sanctioned cross-shard
// communication primitive — the one call a callback may make on
// another shard's behalf (see the cross-shard-event lint rule). A
// negative or non-finite delay panics.
func (s *Shard) Send(dst *Shard, delay float64, fn func()) *Event {
	if delay < 0 || math.IsNaN(delay) || math.IsInf(delay, 0) {
		panic(fmt.Sprintf("sim: Send with invalid delay %v", delay))
	}
	return dst.At(s.Now()+delay, fn)
}

// Pending returns the number of queued (not yet fired) events on this
// shard.
func (s *Shard) Pending() int { return len(s.pq) }
