package sim

// Frozen copy of an early event engine (single global heap built on
// container/heap), kept as the golden reference for Engine: the
// concrete heap, the free list and stamped keys must fire the same
// schedule in exactly the same order. The copy is deliberately
// verbatim-in-behavior — do not "improve" it; its only job is to stay
// what the engine was. (Same precedent as the frozen quadratic fabric in
// fabric_golden_test.go.)

import (
	"container/heap"
	"fmt"
	"math"
)

type legacyEvent struct {
	at       float64
	seq      uint64
	fn       func()
	index    int
	canceled bool
}

type legacyHeap []*legacyEvent

func (h legacyHeap) Len() int { return len(h) }

func (h legacyHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h legacyHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *legacyHeap) Push(x any) {
	ev := x.(*legacyEvent)
	ev.index = len(*h)
	*h = append(*h, ev)
}

func (h *legacyHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

type legacyEngine struct {
	now       float64
	seq       uint64
	pq        legacyHeap
	stopped   bool
	processed uint64
	free      []*legacyEvent
}

func newLegacyEngine() *legacyEngine { return &legacyEngine{} }

func (e *legacyEngine) Now() float64 { return e.now }

func (e *legacyEngine) At(t float64, fn func()) *legacyEvent {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %.9f before now %.9f", t, e.now))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("sim: scheduling event at non-finite time %v", t))
	}
	var ev *legacyEvent
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.at, ev.seq, ev.fn, ev.canceled = t, e.seq, fn, false
	} else {
		ev = &legacyEvent{at: t, seq: e.seq, fn: fn}
	}
	e.seq++
	heap.Push(&e.pq, ev)
	return ev
}

func (e *legacyEngine) After(d float64, fn func()) *legacyEvent {
	return e.At(e.now+d, fn)
}

func (e *legacyEngine) Cancel(ev *legacyEvent) {
	if ev == nil || ev.canceled {
		return
	}
	ev.canceled = true
	if ev.index >= 0 {
		heap.Remove(&e.pq, ev.index)
	}
}

func (e *legacyEngine) Run() {
	e.stopped = false
	for len(e.pq) > 0 && !e.stopped {
		next := e.pq[0]
		heap.Pop(&e.pq)
		e.now = next.at
		e.processed++
		fn := next.fn
		next.fn = nil
		fn()
		if len(e.free) < maxFreeEvents {
			e.free = append(e.free, next)
		}
	}
}
