// Package sim provides a deterministic discrete-event simulation engine.
//
// All simulated time is in seconds, represented as float64. Events
// scheduled for the same instant fire in the order they were scheduled,
// which makes every simulation bit-for-bit reproducible given the same
// inputs and seed.
//
// # Sharded event queues
//
// The engine is sharded: events live in per-shard priority queues (one
// shard per rack or node-group, plus the always-present system shard
// for cross-cutting actors — the RM, the tuner, the network fabric).
// A top-level index heap orders the non-empty shards by their earliest
// (time, seq) key, and the run loop drains one shard at a time inside a
// conservative time-window: the window boundary is the earliest pending
// event of any *other* shard, so every fired event is provably the
// global minimum and the firing order is exactly the total (time, seq)
// order of a single global heap. Shard layout is therefore a pure
// performance knob — same-seed runs are bit-identical at any shard
// count — while each heap stays small (O(log k) on k ≪ N pending
// events) and idle shards cost nothing (they are simply absent from
// the index heap). See docs/MODEL.md ("Sharded event engine").
package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// ShardID identifies one shard of the engine. The system shard is
// always ID 0.
type ShardID int32

// SystemShardID is the ID of the shard every engine starts with; it
// hosts cross-cutting actors (RM, tuner, fabric recompute, drivers).
const SystemShardID ShardID = 0

// Event is a scheduled callback. It can be canceled before it fires.
//
// Ownership: once an event has fired, the engine may recycle the Event
// value for a later At/After call (per-shard free lists keep the hot
// schedule→fire path allocation-free). Callers must therefore drop
// their reference to an event after it fires and must not Cancel it; a
// canceled-but-never-fired event is never recycled, so canceling it
// again remains a safe no-op.
//
// Recycling contract, sharded: an Event is owned by the shard it was
// scheduled on for its entire lifetime. It is recycled into that
// shard's free list only, and can never be reused by — or migrate to —
// another shard (TestRecycledEventNeverMigratesShards pins this).
// Reschedule keeps the event on its owning shard, and scheduling
// methods of a different Shard refuse the event outright.
type Event struct {
	at       float64
	seq      uint64
	fn       func()
	shard    *Shard
	index    int // position in the owning shard's heap, -1 when not queued
	canceled bool
}

// At reports the simulation time this event is scheduled for.
func (e *Event) At() float64 { return e.at }

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e.canceled }

// Shard returns the shard that owns this event.
func (e *Event) Shard() *Shard { return e.shard }

// eventHeap is a shard's binary min-heap of queued events ordered by
// (at, seq). seq is unique, so the order is total and the pop sequence
// is the same as any other correct heap's. The methods are concrete
// (not container/heap's interface calls) because every scheduling call
// and every fired event goes through them; each keeps Event.index in
// step with the event's position.
type eventHeap []*Event

// before reports whether a is ordered ahead of b.
func before(a, b *Event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
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

// shardHeap orders the non-empty shards by their cached earliest
// (time, seq) key; the root is the shard owning the global-minimum
// event. Idle (empty) shards are not in the heap at all.
type shardHeap []*Shard

func (h shardHeap) Len() int { return len(h) }

func (h shardHeap) Less(i, j int) bool {
	if h[i].minAt != h[j].minAt {
		return h[i].minAt < h[j].minAt
	}
	return h[i].minSeq < h[j].minSeq
}

func (h shardHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos = i
	h[j].pos = j
}

func (h *shardHeap) Push(x any) {
	s := x.(*Shard)
	s.pos = len(*h)
	*h = append(*h, s)
}

func (h *shardHeap) Pop() any {
	old := *h
	n := len(old)
	s := old[n-1]
	old[n-1] = nil
	s.pos = -1
	*h = old[:n-1]
	return s
}

// Engine is a sharded, deterministic discrete-event simulator. It is
// not safe for concurrent use; all model code runs inside event
// callbacks on the goroutine that calls Run, strictly in global
// (time, seq) order regardless of shard layout.
type Engine struct {
	now     float64
	seq     uint64
	stopped bool
	// processed counts events that have fired, useful for tests and
	// runaway detection.
	processed uint64
	// MaxEvents aborts Run with a panic when the event count exceeds it.
	// Zero means no limit.
	MaxEvents uint64

	shards []*Shard
	order  shardHeap

	// drain is the shard currently being drained by the serial run
	// loop; its index-heap position is synced lazily, when the drain
	// ends, instead of on every pop.
	drain *Shard
	// boundAt/boundSeq is the drain window boundary: the earliest
	// pending key on any shard other than drain. Scheduling calls that
	// create an earlier key on another shard lower it; staleness is
	// only ever conservative (too low), never unsafe.
	boundAt  float64
	boundSeq uint64
}

// maxFreeEvents bounds each shard's free list so that a burst of events
// does not pin memory for the rest of the run.
const maxFreeEvents = 1 << 14

// NewEngine returns an engine with the clock at zero and a single
// shard (the system shard).
func NewEngine() *Engine {
	e := &Engine{}
	e.NewShard("system")
	return e
}

// NewShard adds a shard to the engine and returns its handle. Shards
// can be added at any time; an idle shard costs nothing until its
// first event is scheduled. Shard layout never changes results — it
// only changes which heap holds which event.
func (e *Engine) NewShard(name string) *Shard {
	s := &Shard{
		eng:  e,
		id:   ShardID(len(e.shards)),
		name: name,
		pos:  -1,
	}
	e.shards = append(e.shards, s)
	return s
}

// SystemShard returns the always-present shard 0, home of
// cross-cutting actors.
func (e *Engine) SystemShard() *Shard { return e.shards[0] }

// ShardCount returns the number of shards (always ≥ 1).
func (e *Engine) ShardCount() int { return len(e.shards) }

// Now returns the current simulation time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Processed returns the number of events that have fired so far.
func (e *Engine) Processed() uint64 { return e.processed }

// At schedules fn on the system shard at absolute time t. Scheduling
// in the past panics, since it indicates a broken model rather than a
// recoverable condition.
func (e *Engine) At(t float64, fn func()) *Event { return e.shards[0].At(t, fn) }

// After schedules fn on the system shard d seconds from now. Negative
// d panics.
func (e *Engine) After(d float64, fn func()) *Event { return e.shards[0].After(d, fn) }

// Reschedule moves a still-queued event to absolute time t, keeping
// its callback and its owning shard. It is exactly equivalent to
// Cancel(ev) followed by At(t, fn) with the event's own fn — including
// consuming one sequence number, so same-instant ordering against
// other events is unchanged — but reuses the Event instead of
// abandoning it (canceled events are never recycled; see Cancel). The
// event must still be queued: rescheduling a fired or canceled event
// panics.
func (e *Engine) Reschedule(ev *Event, t float64) *Event {
	if ev == nil || ev.shard == nil {
		panic("sim: Reschedule of a fired or canceled event")
	}
	return ev.shard.Reschedule(ev, t)
}

// Cancel removes ev from its shard's queue. Canceling an
// already-fired or already-canceled event is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil {
		return
	}
	ev.shard.Cancel(ev)
}

// Tick schedules fn on the system shard every interval seconds,
// starting one interval from now. fn returning false stops the ticker.
func (e *Engine) Tick(interval float64, fn func() bool) *Ticker {
	return e.shards[0].Tick(interval, fn)
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Pending returns the number of queued (not yet fired) events across
// all shards.
func (e *Engine) Pending() int {
	n := 0
	for _, s := range e.shards {
		n += len(s.pq)
	}
	return n
}

// Run processes events until every queue is empty or Stop is called.
func (e *Engine) Run() {
	e.RunUntil(math.Inf(1))
}

// RunUntil processes events with time <= t, then sets the clock to t if
// the queues drained earlier than t (and t is finite).
func (e *Engine) RunUntil(t float64) {
	e.stopped = false
	for len(e.order) > 0 && !e.stopped {
		s := e.order[0]
		if s.minAt > t {
			break
		}
		// Conservative window: drain s while its head stays at or
		// below the earliest pending key of every other shard. The
		// boundary starts exact (second-best of the index heap) and is
		// lowered eagerly by any scheduling call that beats it, so the
		// popped event is always the global (time, seq) minimum.
		e.boundAt, e.boundSeq = e.secondBest()
		e.drain = s
		for len(s.pq) > 0 {
			ev := s.pq[0]
			if ev.at > t {
				break
			}
			if ev.at > e.boundAt || (ev.at == e.boundAt && ev.seq > e.boundSeq) {
				break
			}
			s.pq.pop()
			e.now = ev.at
			e.processed++
			if e.MaxEvents > 0 && e.processed > e.MaxEvents {
				panic(fmt.Sprintf("sim: exceeded MaxEvents=%d (runaway model?)", e.MaxEvents))
			}
			fn := ev.fn
			ev.fn = nil // release the closure before running it
			fn()
			// The event has fired and its closure is detached; recycle
			// it into its owning shard (see the Event ownership
			// contract — recycled events never migrate shards).
			if len(s.free) < maxFreeEvents {
				s.free = append(s.free, ev)
			}
			if e.stopped {
				break
			}
		}
		e.drain = nil
		e.syncShard(s)
	}
	if !math.IsInf(t, 1) && t > e.now && !e.stopped {
		e.now = t
	}
}

// secondBest returns the earliest pending (time, seq) key among all
// shards except the index-heap root — one of the root's children, by
// the heap property — or +inf when the root is the only live shard.
func (e *Engine) secondBest() (float64, uint64) {
	at, seq := math.Inf(1), ^uint64(0)
	for i := 1; i <= 2 && i < len(e.order); i++ {
		s := e.order[i]
		if s.minAt < at || (s.minAt == at && s.minSeq < seq) {
			at, seq = s.minAt, s.minSeq
		}
	}
	return at, seq
}

// syncShard refreshes s's cached minimum key and its index-heap
// membership after a queue mutation, and lowers the active drain
// boundary when s now holds an earlier event than the boundary. The
// shard being drained is skipped — the drain loop reads its queue head
// directly and its heap position is restored when the drain ends.
func (e *Engine) syncShard(s *Shard) {
	if s == e.drain {
		return
	}
	if len(s.pq) == 0 {
		if s.pos >= 0 {
			heap.Remove(&e.order, s.pos)
		}
		return
	}
	h := s.pq[0]
	if s.pos < 0 {
		s.minAt, s.minSeq = h.at, h.seq
		heap.Push(&e.order, s) // lazy wakeup: idle shard joins the index
	} else if h.at != s.minAt || h.seq != s.minSeq {
		s.minAt, s.minSeq = h.at, h.seq
		heap.Fix(&e.order, s.pos)
	} else {
		return
	}
	if e.drain != nil && (s.minAt < e.boundAt || (s.minAt == e.boundAt && s.minSeq < e.boundSeq)) {
		e.boundAt, e.boundSeq = s.minAt, s.minSeq
	}
}

// Ticker invokes fn every interval seconds until Stop is called or fn
// returns false. It exists because a periodic event chain keeps the
// event queue non-empty: components must stop their tickers when the
// observed work completes or Run never returns.
type Ticker struct {
	shard    *Shard
	interval float64
	fn       func() bool
	stopped  bool
}

func (t *Ticker) schedule() {
	t.shard.After(t.interval, func() {
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

// Stop halts the ticker (idempotent).
func (t *Ticker) Stop() { t.stopped = true }
