package sim

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// actorSched abstracts "schedule fn for logical actor a at absolute time
// t" so one logical workload can drive the frozen legacy single-heap
// engine and the sharded engine at any shard count. The workload is
// defined over logical actors; how actors map onto shards is the layout
// under test, and must never change the firing order.
type actorSched struct {
	now func() float64
	// at schedules fn for the given actor and returns a cancel func.
	at func(actor int, t float64, fn func()) func()
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
	// (seq) order whatever shard holds each actor.
	for a := 0; a < actors; a++ {
		a := a
		s.at(a, 1.0, func() { record(a, "tie") })
	}

	// Per-actor random event chains that occasionally hop to another
	// actor (a cross-shard send under any multi-shard layout). Each
	// actor draws from its own named stream, so draw order is fixed by
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
				s.at(dst, s.now()+d, func() { record(dst, fmt.Sprintf("hop%d<-a%02d", depth+1, a)) })
			}
			s.at(a, s.now()+d, func() { step(depth + 1) })
		}
		s.at(a, 0.5+float64(a)*0.01, func() { step(0) })
	}

	// Cancellations: each actor schedules a victim; a later event on a
	// *different* actor cancels it (exercises cancel across layouts).
	cancels := make([]func(), actors)
	for a := 0; a < actors; a++ {
		a := a
		cancels[a] = s.at(a, 9.0, func() { record(a, "victim-fired") })
	}
	for a := 0; a < actors; a++ {
		a := a
		s.at((a+1)%actors, 4.0+float64(a)*0.001, func() {
			record((a+1)%actors, fmt.Sprintf("cancel-a%02d", a))
			cancels[a]()
		})
	}

	run()
	return log
}

// shardedSched builds an actorSched over a sharded engine with the
// given shard count, mapping actor a to shard a mod shards (shard
// count 1 keeps everything on the system shard).
func shardedSched(shardCount, actors int) (*Engine, actorSched) {
	eng := NewEngine()
	byActor := make([]*Shard, actors)
	handles := []*Shard{eng.SystemShard()}
	for len(handles) < shardCount {
		handles = append(handles, eng.NewShard(fmt.Sprintf("shard%02d", len(handles))))
	}
	for a := 0; a < actors; a++ {
		byActor[a] = handles[a%shardCount]
	}
	return eng, actorSched{
		now: eng.Now,
		at: func(actor int, t float64, fn func()) func() {
			sh := byActor[actor]
			ev := sh.At(t, fn)
			return func() { sh.Cancel(ev) }
		},
	}
}

// TestShardLayoutInvariance is the headline determinism test of the
// sharded engine: the identical logical workload, same seed, run at
// shard counts 1, 4, and 16 and on the frozen pre-sharding engine,
// must produce byte-identical firing-order traces.
func TestShardLayoutInvariance(t *testing.T) {
	const seed, actors = 42, 16

	leg := newLegacyEngine()
	legSched := actorSched{
		now: leg.Now,
		at: func(_ int, at float64, fn func()) func() {
			ev := leg.At(at, fn)
			return func() { leg.Cancel(ev) }
		},
	}
	want := runActorWorkload(t, seed, actors, legSched, leg.Run)
	if len(want) == 0 {
		t.Fatal("workload produced no events")
	}
	if strings.Contains(strings.Join(want, "\n"), "victim-fired") {
		t.Fatal("canceled event fired on the legacy engine; workload broken")
	}

	for _, shards := range []int{1, 4, 16} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			eng, sched := shardedSched(shards, actors)
			got := runActorWorkload(t, seed, actors, sched, eng.Run)
			if len(got) != len(want) {
				t.Fatalf("event counts differ: legacy fired %d, %d-shard fired %d", len(want), shards, len(got))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("firing order diverged from legacy engine at event %d:\n  legacy:  %q\n  sharded: %q",
						i, want[i], got[i])
				}
			}
			if eng.Pending() != 0 {
				t.Fatalf("%d events left pending after Run", eng.Pending())
			}
		})
	}
}

// TestRecycledEventNeverMigratesShards pins the sharded recycling
// contract: a fired event is reused only by the shard that owned it.
func TestRecycledEventNeverMigratesShards(t *testing.T) {
	eng := NewEngine()
	a := eng.NewShard("a")
	b := eng.NewShard("b")

	evA := a.At(1, func() {})
	evB := b.At(1, func() {})
	eng.RunUntil(2)

	// Both events have fired and sit on their shards' free lists.
	reA := a.At(3, func() {})
	reB := b.At(3, func() {})
	if reA != evA {
		t.Error("shard a did not recycle its own fired event")
	}
	if reB != evB {
		t.Error("shard b did not recycle its own fired event")
	}
	if reA == evB || reB == evA {
		t.Fatal("recycled event migrated shards")
	}
	if reA.Shard() != a || reB.Shard() != b {
		t.Fatal("recycled event reports the wrong owning shard")
	}

	// A shard under recycling pressure still never borrows another
	// shard's events: drain many events on a, then schedule on b.
	for i := 0; i < 100; i++ {
		a.After(1, func() {})
	}
	eng.RunUntil(10)
	fresh := b.At(11, func() {})
	if fresh.Shard() != b {
		t.Fatal("event scheduled on shard b owned by another shard")
	}
}

// TestCrossShardRescheduleAndCancelPanic pins the ownership guards:
// moving or canceling an event through a different shard's API is a
// model bug and must panic rather than silently migrate the event.
func TestCrossShardRescheduleAndCancelPanic(t *testing.T) {
	eng := NewEngine()
	a := eng.NewShard("a")
	b := eng.NewShard("b")
	ev := a.At(5, func() {})

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s across shards did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("Reschedule", func() { b.Reschedule(ev, 6) })
	mustPanic("Cancel", func() { b.Cancel(ev) })

	// Engine-level Reschedule/Cancel route to the owning shard and stay
	// legal.
	eng.Reschedule(ev, 7)
	eng.Cancel(ev)
	if !ev.Canceled() {
		t.Fatal("engine-level Cancel did not cancel")
	}
}

// TestLazyShardWakeup checks that idle shards are absent from the index
// heap and rejoin it when an event arrives.
func TestLazyShardWakeup(t *testing.T) {
	eng := NewEngine()
	shards := make([]*Shard, 64)
	for i := range shards {
		shards[i] = eng.NewShard(fmt.Sprintf("s%d", i))
	}
	if got := len(eng.order); got != 0 {
		t.Fatalf("index heap holds %d shards before any event", got)
	}
	shards[7].At(1, func() {})
	shards[9].At(1, func() {})
	if got := len(eng.order); got != 2 {
		t.Fatalf("index heap holds %d shards, want 2", got)
	}
	eng.Run()
	if got := len(eng.order); got != 0 {
		t.Fatalf("index heap holds %d shards after drain, want 0", got)
	}
}

// TestEngineRunUntilClampAcrossShards mirrors the single-heap clamp
// semantics: RunUntil(t) advances the clock to t when the queues drain
// early, and shard Now() agrees with the engine.
func TestEngineRunUntilClampAcrossShards(t *testing.T) {
	eng := NewEngine()
	s := eng.NewShard("s")
	fired := false
	s.At(1, func() { fired = true })
	eng.RunUntil(5)
	if !fired {
		t.Fatal("event did not fire")
	}
	if eng.Now() != 5 {
		t.Fatalf("clock = %v, want 5", eng.Now())
	}
	if s.Now() != 5 {
		t.Fatalf("shard clock = %v, want 5", s.Now())
	}
}

// TestSendInvalidDelayPanics pins Send's delay check: a negative or
// non-finite delay is a model bug and panics at the call.
func TestSendInvalidDelayPanics(t *testing.T) {
	for _, d := range []float64{-0.5, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Send with delay %v did not panic", d)
				}
			}()
			eng := NewEngine()
			eng.SystemShard().Send(eng.NewShard("b"), d, func() {})
		}()
	}
}

// queueOps abstracts the scheduling calls of one engine for
// runQueueOps: schedule on a shard, move a queued event, cancel one.
// On the frozen legacy engine, reschedule is Cancel followed by At with
// the event's own callback, which is what Reschedule is specified to
// equal, sequence number included.
type queueOps struct {
	now        func() float64
	at         func(shard int, t float64, fn func()) any
	reschedule func(h any, t float64) any
	cancel     func(h any)
}

// runQueueOps drives random interleavings of At, Reschedule and Cancel,
// issued up front and from inside callbacks, with delays drawn from a
// few whole seconds so that many events tie on time and fire by seq.
// Every decision comes from one seeded stream, so two engines that fire
// in the same order make the same calls. It returns the firing order
// and the number of reschedules and cancels issued.
func runQueueOps(seed int64, shards int, q queueOps, run func()) (order []int, moved, canceled int) {
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
		handles[label] = q.at(rng.Intn(shards), q.now()+float64(rng.Intn(4)), func() {
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

// TestRescheduleCancelInterleavingMatchesLegacy: random interleavings
// of At, Reschedule and Cancel, across shards and from inside
// callbacks, fire in exactly the frozen legacy engine's order.
func TestRescheduleCancelInterleavingMatchesLegacy(t *testing.T) {
	var moved, canceled int
	for seed := int64(0); seed < 300; seed++ {
		leg := newLegacyEngine()
		want, m, c := runQueueOps(seed, 1, queueOps{
			now: leg.Now,
			at:  func(_ int, at float64, fn func()) any { return leg.At(at, fn) },
			reschedule: func(h any, at float64) any {
				ev := h.(*legacyEvent)
				fn := ev.fn
				leg.Cancel(ev)
				return leg.At(at, fn)
			},
			cancel: func(h any) { leg.Cancel(h.(*legacyEvent)) },
		}, leg.Run)
		moved, canceled = moved+m, canceled+c

		for _, shards := range []int{1, 3} {
			eng := NewEngine()
			for eng.ShardCount() < shards {
				eng.NewShard(fmt.Sprintf("s%d", eng.ShardCount()))
			}
			got, _, _ := runQueueOps(seed, shards, queueOps{
				now: eng.Now,
				at: func(s int, at float64, fn func()) any {
					return eng.shards[s].At(at, fn)
				},
				reschedule: func(h any, at float64) any {
					ev := h.(*Event)
					return ev.Shard().Reschedule(ev, at)
				},
				cancel: func(h any) { ev := h.(*Event); ev.Shard().Cancel(ev) },
			}, eng.Run)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d, %d shards: firing order\n  %v\nwant (legacy)\n  %v", seed, shards, got, want)
			}
			if eng.Pending() != 0 {
				t.Fatalf("seed %d, %d shards: %d events left pending", seed, shards, eng.Pending())
			}
		}
	}
	if moved == 0 || canceled == 0 {
		t.Fatalf("workload issued %d reschedules and %d cancels; both must be exercised", moved, canceled)
	}
}
