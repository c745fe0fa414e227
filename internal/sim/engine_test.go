package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(3, func() { got = append(got, 3) })
	e.At(1, func() { got = append(got, 1) })
	e.At(2, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3 {
		t.Fatalf("Now() = %v, want 3", e.Now())
	}
}

func TestEngineSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events fired out of order at %d: %v", i, got[:i+1])
		}
	}
}

func TestEngineAfter(t *testing.T) {
	e := NewEngine()
	var at float64 = -1
	e.At(10, func() {
		e.After(2.5, func() { at = e.Now() })
	})
	e.Run()
	if at != 12.5 {
		t.Fatalf("After fired at %v, want 12.5", at)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(1, func() { fired = true })
	e.Cancel(ev)
	e.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if !ev.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
	// Double-cancel and cancel-nil must be harmless.
	e.Cancel(ev)
	e.Cancel(nil)
}

func TestEngineCancelFromInsideEvent(t *testing.T) {
	e := NewEngine()
	fired := false
	var ev *Event
	e.At(1, func() { e.Cancel(ev) })
	ev = e.At(2, func() { fired = true })
	e.Run()
	if fired {
		t.Fatal("event canceled from inside an earlier event still fired")
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []float64
	for _, at := range []float64{1, 2, 3, 4, 5} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(3)
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	if e.Now() != 3 {
		t.Fatalf("Now() = %v, want 3", e.Now())
	}
	e.RunUntil(10)
	if len(fired) != 5 {
		t.Fatalf("fired %d events, want 5", len(fired))
	}
	if e.Now() != 10 {
		t.Fatalf("clock should advance to RunUntil bound, got %v", e.Now())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	e.At(1, func() { count++; e.Stop() })
	e.At(2, func() { count++ })
	e.Run()
	if count != 1 {
		t.Fatalf("Stop did not halt processing, count = %d", count)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
	e.Run() // resumes
	if count != 2 {
		t.Fatalf("resume after Stop failed, count = %d", count)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(1, func() {})
	})
	e.Run()
}

func TestEngineNonFiniteTimePanics(t *testing.T) {
	e := NewEngine()
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%v) did not panic", bad)
				}
			}()
			e.At(bad, func() {})
		}()
	}
}

func TestEngineMaxEvents(t *testing.T) {
	e := NewEngine()
	e.MaxEvents = 10
	var loop func()
	loop = func() { e.After(1, loop) }
	e.At(0, loop)
	defer func() {
		if recover() == nil {
			t.Fatal("runaway loop did not trip MaxEvents")
		}
	}()
	e.Run()
}

// Property: events fire in nondecreasing time order regardless of the
// insertion order, and every non-canceled event fires exactly once.
func TestEngineHeapProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var fired []float64
		count := int(n)%64 + 1
		times := make([]float64, count)
		for i := 0; i < count; i++ {
			at := rng.Float64() * 100
			times[i] = at
			e.At(at, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != count {
			return false
		}
		if !sort.Float64sAreSorted(fired) {
			return false
		}
		sort.Float64s(times)
		for i := range times {
			if times[i] != fired[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEngineProcessedCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.At(float64(i), func() {})
	}
	e.Run()
	if e.Processed() != 7 {
		t.Fatalf("Processed() = %d, want 7", e.Processed())
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	count := 0
	tk := e.Tick(2, func() bool { count++; return count < 3 })
	e.Run()
	if count != 3 {
		t.Fatalf("ticks = %d, want 3 (stopped by fn)", count)
	}
	if e.Now() != 6 {
		t.Fatalf("clock = %v, want 6", e.Now())
	}
	tk.Stop() // idempotent after self-stop
}

func TestTickerStop(t *testing.T) {
	e := NewEngine()
	count := 0
	tk := e.Tick(1, func() bool { count++; return true })
	e.At(4.5, func() { tk.Stop() })
	e.Run()
	if count != 4 {
		t.Fatalf("ticks = %d, want 4 before Stop", count)
	}
	if e.Pending() != 0 {
		t.Fatal("stopped ticker left events pending after drain")
	}
}

func TestTickerBadIntervalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero interval accepted")
		}
	}()
	NewEngine().Tick(0, func() bool { return true })
}

// actorSched abstracts "schedule fn at absolute time t" so one logical
// workload can drive both the frozen legacy engine and Engine.
type actorSched struct {
	now func() float64
	// at schedules fn and returns a cancel func.
	at func(t float64, fn func()) func()
}

// runActorWorkload drives a mixed schedule over the given number of
// logical actors — same-instant ties across actors, seeded random
// chains, cross-actor spawns, and cancellations — and returns the exact
// firing order as one string per event.
func runActorWorkload(t *testing.T, seed uint64, actors int, s actorSched, run func()) []string {
	t.Helper()
	src := NewSource(seed)
	var log []string
	record := func(actor int, tag string) {
		log = append(log, fmt.Sprintf("%.9f a%02d %s", s.now(), actor, tag))
	}

	// Same-instant tie across every actor: must fire in scheduling
	// (seq) order.
	for a := 0; a < actors; a++ {
		a := a
		s.at(1.0, func() { record(a, "tie") })
	}

	// Per-actor random event chains that occasionally hop to another
	// actor. Each actor draws from its own named stream, so draw order is fixed by
	// the firing order alone.
	for a := 0; a < actors; a++ {
		a := a
		rng := src.Stream(fmt.Sprintf("actor-%d", a))
		var step func(depth int)
		step = func(depth int) {
			record(a, fmt.Sprintf("step%d", depth))
			if depth >= 6 {
				return
			}
			d := 0.1 + rng.Float64()
			if rng.Intn(4) == 0 {
				// Hop: continue the chain on another actor.
				dst := rng.Intn(actors)
				s.at(s.now()+d, func() { record(dst, fmt.Sprintf("hop%d<-a%02d", depth+1, a)) })
			}
			s.at(s.now()+d, func() { step(depth + 1) })
		}
		s.at(0.5+float64(a)*0.01, func() { step(0) })
	}

	// Cancellations: each actor schedules a victim; a later event of a
	// *different* actor cancels it.
	cancels := make([]func(), actors)
	for a := 0; a < actors; a++ {
		a := a
		cancels[a] = s.at(9.0, func() { record(a, "victim-fired") })
	}
	for a := 0; a < actors; a++ {
		a := a
		s.at(4.0+float64(a)*0.001, func() {
			record((a+1)%actors, fmt.Sprintf("cancel-a%02d", a))
			cancels[a]()
		})
	}

	run()
	return log
}

// queueOps abstracts the scheduling calls of one engine for
// runQueueOps: schedule an event, move a queued one, cancel one.
// On the frozen legacy engine, reschedule is Cancel followed by At with
// the event's own callback; on Engine it is Rekey under a fresh Stamp,
// which is specified to equal that, sequence number included.
type queueOps struct {
	now        func() float64
	at         func(t float64, fn func()) any
	reschedule func(h any, t float64) any
	cancel     func(h any)
}

// runQueueOps drives random interleavings of At, Rekey and Cancel,
// issued up front and from inside callbacks, with delays drawn from a
// few whole seconds so that many events tie on time and fire by seq.
// Every decision comes from one seeded stream, so two engines that fire
// in the same order make the same calls. It returns the firing order
// and the number of reschedules and cancels issued.
func runQueueOps(seed int64, q queueOps, run func()) (order []int, moved, canceled int) {
	rng := rand.New(rand.NewSource(seed))
	handles := map[int]any{}
	var live []int // labels of queued events, in a replay-stable order
	drop := func(label int) {
		for i, l := range live {
			if l == label {
				live = append(live[:i], live[i+1:]...)
				return
			}
		}
	}
	next := 0
	var act func(depth int)
	schedule := func(depth int) {
		label := next
		next++
		handles[label] = q.at(q.now()+float64(rng.Intn(4)), func() {
			order = append(order, label)
			drop(label)
			if depth < 4 {
				act(depth + 1)
			}
		})
		live = append(live, label)
	}
	act = func(depth int) {
		for k := rng.Intn(5); k > 0; k-- {
			switch op := rng.Intn(3); {
			case op == 0 || len(live) == 0:
				schedule(depth)
			case op == 1:
				l := live[rng.Intn(len(live))]
				handles[l] = q.reschedule(handles[l], q.now()+float64(rng.Intn(4)))
				moved++
			default:
				l := live[rng.Intn(len(live))]
				q.cancel(handles[l])
				drop(l)
				canceled++
			}
		}
	}
	for i := 0; i < 20; i++ {
		schedule(0)
	}
	act(0)
	run()
	return order, moved, canceled
}

// TestActorWorkloadMatchesLegacy: a mixed actor workload (same-instant
// ties, seeded chains, cross-actor spawns and cancels) fires in
// exactly the frozen legacy engine's order.
func TestActorWorkloadMatchesLegacy(t *testing.T) {
	const seed, actors = 42, 16

	leg := newLegacyEngine()
	want := runActorWorkload(t, seed, actors, actorSched{
		now: leg.Now,
		at: func(at float64, fn func()) func() {
			ev := leg.At(at, fn)
			return func() { leg.Cancel(ev) }
		},
	}, leg.Run)
	if len(want) == 0 {
		t.Fatal("workload produced no events")
	}
	if strings.Contains(strings.Join(want, "\n"), "victim-fired") {
		t.Fatal("canceled event fired on the legacy engine; workload broken")
	}

	eng := NewEngine()
	got := runActorWorkload(t, seed, actors, actorSched{
		now: eng.Now,
		at: func(at float64, fn func()) func() {
			ev := eng.At(at, fn)
			return func() { eng.Cancel(ev) }
		},
	}, eng.Run)
	if len(got) != len(want) {
		t.Fatalf("event counts differ: legacy fired %d, engine fired %d", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing order diverged from legacy engine at event %d:\n  legacy: %q\n  engine: %q",
				i, want[i], got[i])
		}
	}
	if eng.Pending() != 0 {
		t.Fatalf("%d events left pending after Run", eng.Pending())
	}
}

// TestRescheduleCancelInterleavingMatchesLegacy: random interleavings
// of At, Stamp+Rekey and Cancel, issued up front and from inside
// callbacks, fire in exactly the frozen legacy engine's order, where
// the move is Cancel followed by At.
func TestRescheduleCancelInterleavingMatchesLegacy(t *testing.T) {
	var moved, canceled int
	for seed := int64(0); seed < 300; seed++ {
		leg := newLegacyEngine()
		want, m, c := runQueueOps(seed, queueOps{
			now: leg.Now,
			at:  func(at float64, fn func()) any { return leg.At(at, fn) },
			reschedule: func(h any, at float64) any {
				ev := h.(*legacyEvent)
				fn := ev.fn
				leg.Cancel(ev)
				return leg.At(at, fn)
			},
			cancel: func(h any) { leg.Cancel(h.(*legacyEvent)) },
		}, leg.Run)
		moved, canceled = moved+m, canceled+c

		eng := NewEngine()
		got, _, _ := runQueueOps(seed, queueOps{
			now:        eng.Now,
			at:         func(at float64, fn func()) any { return eng.At(at, fn) },
			reschedule: func(h any, at float64) any { return engineRekey(eng, h, at) },
			cancel:     func(h any) { eng.Cancel(h.(*Event)) },
		}, eng.Run)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("seed %d: firing order\n  %v\nwant (legacy)\n  %v", seed, got, want)
		}
		if eng.Pending() != 0 {
			t.Fatalf("seed %d: %d events left pending", seed, eng.Pending())
		}
	}
	if moved == 0 || canceled == 0 {
		t.Fatalf("workload issued %d reschedules and %d cancels; both must be exercised", moved, canceled)
	}
}

// engineRekey moves the queued event h to time at, keeping its
// callback: Rekey under a key stamped now.
func engineRekey(eng *Engine, h any, at float64) any {
	ev := h.(*Event)
	eng.Rekey(ev, eng.Stamp(at), ev.fn)
	return ev
}

// TestStampedKeysFireInStampOrder: events queued with AtKey, or moved
// with Rekey, under keys stamped earlier fire where At calls made at
// the stampings would have put them, whenever they are queued.
func TestStampedKeysFireInStampOrder(t *testing.T) {
	var want, got []string
	leg := newLegacyEngine()
	eng := NewEngine()
	note := func(log *[]string, name string, now func() float64) func() {
		return func() { *log = append(*log, fmt.Sprintf("%g %s", now(), name)) }
	}
	// The legacy engine schedules each event with At at its stamping.
	leg.At(2, note(&want, "a", leg.Now))
	leg.At(1, note(&want, "b", leg.Now))
	leg.At(2, note(&want, "c", leg.Now))
	leg.At(2, note(&want, "d", leg.Now))
	leg.At(1, note(&want, "e", leg.Now))
	leg.Run()

	ka := eng.Stamp(2)
	kb := eng.Stamp(1)
	eng.At(2, note(&got, "c", eng.Now))
	kd := eng.Stamp(2)
	ke := eng.Stamp(1)
	// Queue in another order than stamped; e first sits under d's key.
	ev := eng.AtKey(kd, note(&got, "e", eng.Now))
	eng.AtKey(kb, note(&got, "b", eng.Now))
	eng.AtKey(ka, note(&got, "a", eng.Now))
	eng.Rekey(ev, ke, note(&got, "e", eng.Now))
	eng.AtKey(kd, note(&got, "d", eng.Now))
	eng.Run()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("firing order %v, want (legacy At at each stamping) %v", got, want)
	}
}

// TestKeyMisusePanics: a key that is zero or already past, a Rekey of
// an event that is not queued, and a stamp at a bad time all panic.
func TestKeyMisusePanics(t *testing.T) {
	e := NewEngine()
	early := e.Stamp(1)
	fired := e.At(1, func() {})
	queued := e.At(4, func() {})
	canceled := e.At(5, func() {})
	e.Cancel(canceled)
	e.RunUntil(2)
	late := e.Stamp(3)
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"AtKey zero key", func() { e.AtKey(Key{}, func() {}) }},
		{"AtKey past key", func() { e.AtKey(early, func() {}) }},
		{"Rekey to zero key", func() { e.Rekey(queued, Key{}, func() {}) }},
		{"Rekey to past key", func() { e.Rekey(queued, early, func() {}) }},
		{"Rekey fired event", func() { e.Rekey(fired, late, func() {}) }},
		{"Rekey canceled event", func() { e.Rekey(canceled, late, func() {}) }},
		{"Stamp past time", func() { e.Stamp(1.5) }},
		{"Stamp NaN", func() { e.Stamp(math.NaN()) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", c.name)
				}
			}()
			c.fn()
		}()
	}
}

// TestKeyBefore: stamped keys order by time, then by stamping; the
// zero key orders after every stamped one.
func TestKeyBefore(t *testing.T) {
	e := NewEngine()
	k2 := e.Stamp(2)
	k1 := e.Stamp(1)
	k2b := e.Stamp(2)
	for _, c := range []struct {
		a, b Key
		want bool
	}{
		{k1, k2, true}, {k2, k1, false}, {k2, k2b, true}, {k2b, k2, false},
		{k2, k2, false}, {k1, Key{}, true}, {Key{}, k1, false}, {Key{}, Key{}, false},
	} {
		if got := c.a.Before(c.b); got != c.want {
			t.Errorf("%+v.Before(%+v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestFiredEventRecycledCanceledNot pins the free list: the next At
// reuses an event that has fired, and never one that was canceled.
func TestFiredEventRecycledCanceledNot(t *testing.T) {
	e := NewEngine()
	fired := e.At(1, func() {})
	e.RunUntil(2)
	if re := e.At(3, func() {}); re != fired {
		t.Fatal("At did not reuse the fired event")
	}

	canceled := e.At(4, func() {})
	e.Cancel(canceled)
	e.Run()
	for i := 0; i < 4; i++ {
		if ev := e.At(10, func() {}); ev == canceled {
			t.Fatal("At reused a canceled event")
		}
	}
	if !canceled.Canceled() || canceled.At() != 4 {
		t.Fatal("canceled event was modified after Cancel")
	}
}

// BenchmarkEngineThroughput measures raw event processing speed.
func BenchmarkEngineThroughput(b *testing.B) {
	e := NewEngine()
	var fn func()
	n := 0
	fn = func() {
		n++
		if n < b.N {
			e.After(1, fn)
		}
	}
	e.At(0, fn)
	b.ResetTimer()
	e.Run()
}
