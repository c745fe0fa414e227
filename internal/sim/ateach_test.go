package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// legacyRunUntil is Engine.RunUntil's cut point on the frozen legacy
// engine, which only has Run: the same loop body, stopping before the
// first event later than t, then moving the clock to a finite t that
// the queue drained before. legacyStop is the matching Stop.
func legacyRunUntil(e *legacyEngine, t float64) {
	e.stopped = false
	for len(e.pq) > 0 && !e.stopped && e.pq[0].at <= t {
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
	if !math.IsInf(t, 1) && t > e.now && !e.stopped {
		e.now = t
	}
}

func legacyStop(e *legacyEngine) { e.stopped = true }

// seriesOps abstracts one engine for runSeriesOps: the calls of
// queueOps, a series registration, and the RunUntil/Stop cut points.
type seriesOps struct {
	queueOps
	atEach    func(times []float64, fn func(i int))
	runUntil  func(t float64)
	stop      func()
	processed func() uint64
}

// legacySeriesOps drives the frozen legacy engine, registering a series
// as one At per time in index order — what AtEach is specified to equal.
func legacySeriesOps(leg *legacyEngine) seriesOps {
	return seriesOps{
		queueOps: queueOps{
			now: leg.Now,
			at:  func(at float64, fn func()) any { return leg.At(at, fn) },
			reschedule: func(h any, at float64) any {
				ev := h.(*legacyEvent)
				fn := ev.fn
				leg.Cancel(ev)
				return leg.At(at, fn)
			},
			cancel: func(h any) { leg.Cancel(h.(*legacyEvent)) },
		},
		atEach: func(times []float64, fn func(i int)) {
			for i, t := range times {
				i := i
				leg.At(t, func() { fn(i) })
			}
		},
		runUntil:  func(t float64) { legacyRunUntil(leg, t) },
		stop:      func() { legacyStop(leg) },
		processed: func() uint64 { return leg.processed },
	}
}

func engineSeriesOps(eng *Engine) seriesOps {
	return seriesOps{
		queueOps: queueOps{
			now:        eng.Now,
			at:         func(at float64, fn func()) any { return eng.At(at, fn) },
			reschedule: func(h any, at float64) any { return engineRekey(eng, h, at) },
			cancel:     func(h any) { eng.Cancel(h.(*Event)) },
		},
		atEach:    eng.AtEach,
		runUntil:  eng.RunUntil,
		stop:      eng.Stop,
		processed: eng.Processed,
	}
}

// runSeriesOps drives random At, Rekey and Cancel calls around
// AtEach series, with RunUntil cut points between rounds and Stop
// calls from inside callbacks. Times are multiples of 0.5 s and many
// events are placed exactly at a series time, scheduled before the
// series is registered, after it, and from inside series callbacks,
// so ties are decided by sequence numbers. Every decision comes from
// pick (a value in [0, n)), so two engines that fire in the same order
// make the same calls. It returns the firing order, with the Processed
// count at every cut point, and counts of what the schedule exercised.
func runSeriesOps(pick func(n int) int, q seriesOps) (log []string, st seriesStats) {
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
	var seriesTimes []float64 // every registered series time, for ties
	outstanding := 0          // queued events plus unfired series times
	nextLabel, nextSeries := 0, 0

	var act func(depth int)
	// eventTime is either a short delay or, when one is not past, a
	// registered series time.
	eventTime := func() float64 {
		now := q.now()
		if len(seriesTimes) > 0 && pick(2) == 0 {
			if at := seriesTimes[pick(len(seriesTimes))]; at >= now {
				st.tied++
				return at
			}
		}
		return now + float64(pick(4))/2
	}
	schedule := func(depth int, at float64) {
		label := nextLabel
		nextLabel++
		outstanding++
		handles[label] = q.at(at, func() {
			outstanding--
			log = append(log, fmt.Sprintf("%g e%d", q.now(), label))
			drop(label)
			if depth < 4 {
				act(depth + 1)
			}
		})
		live = append(live, label)
	}
	drawTimes := func() []float64 {
		times := make([]float64, 1+pick(12))
		t := q.now() + float64(pick(3))/2
		for i := range times {
			times[i] = t
			t += float64(1+pick(3)) / 2
		}
		return times
	}
	register := func(depth int, times []float64) {
		k := nextSeries
		nextSeries++
		seriesTimes = append(seriesTimes, times...)
		outstanding += len(times)
		if depth > 0 {
			st.nested++
		}
		q.atEach(times, func(i int) {
			outstanding--
			st.fired++
			log = append(log, fmt.Sprintf("%g s%d.%d", q.now(), k, i))
			if depth < 3 {
				act(depth + 1)
			}
		})
	}
	act = func(depth int) {
		for k := pick(4); k > 0; k-- {
			switch op := pick(8); {
			case op <= 2 || len(live) == 0 && op <= 5:
				schedule(depth, eventTime())
			case op == 3:
				l := live[pick(len(live))]
				handles[l] = q.reschedule(handles[l], eventTime())
				st.moved++
			case op == 4:
				l := live[pick(len(live))]
				q.cancel(handles[l])
				drop(l)
				outstanding--
				st.canceled++
			case op == 5 && depth > 0:
				q.stop()
				st.stops++
			case op == 6 && nextSeries < 4:
				register(depth, drawTimes())
			}
		}
	}

	// A series; events, some at its times and some at the times of the
	// series registered next; that second series; then random calls.
	register(0, drawTimes())
	second := drawTimes()
	for i := 1 + pick(4); i > 0; i-- {
		at := eventTime()
		if pick(2) == 0 {
			at = second[pick(len(second))]
			st.tied++
		}
		schedule(0, at)
	}
	register(0, second)
	act(0)
	cut := func() {
		log = append(log, fmt.Sprintf("cut %g processed %d", q.now(), q.processed()))
	}
	for round := pick(6); round > 0 && outstanding > 0; round-- {
		q.runUntil(q.now() + float64(pick(8))/2)
		cut()
		st.cuts++
		act(0)
	}
	for outstanding > 0 {
		q.runUntil(math.Inf(1))
		cut()
	}
	return log, st
}

// seriesStats counts what one runSeriesOps schedule exercised: series
// firings, events placed exactly at a series time, reschedules,
// cancels, Stop calls, series registered from callbacks, and RunUntil
// cut points.
type seriesStats struct {
	fired, tied, moved, canceled, stops, nested, cuts int
}

func (a *seriesStats) add(b seriesStats) {
	a.fired += b.fired
	a.tied += b.tied
	a.moved += b.moved
	a.canceled += b.canceled
	a.stops += b.stops
	a.nested += b.nested
	a.cuts += b.cuts
}

// compareSeriesRuns runs one schedule on the legacy engine (one At per
// series time) and on Engine (AtEach) and reports the first difference.
func compareSeriesRuns(t *testing.T, label string, newPick func() func(n int) int) seriesStats {
	t.Helper()
	want, st := runSeriesOps(newPick(), legacySeriesOps(newLegacyEngine()))
	eng := NewEngine()
	got, _ := runSeriesOps(newPick(), engineSeriesOps(eng))
	for i := 0; i < len(want) || i < len(got); i++ {
		if i >= len(want) || i >= len(got) || got[i] != want[i] {
			t.Fatalf("%s: firing order diverged at entry %d:\n  engine: %s\n  legacy: %s",
				label, i, strings.Join(got, ", "), strings.Join(want, ", "))
		}
	}
	if eng.Pending() != 0 {
		t.Fatalf("%s: %d events left pending", label, eng.Pending())
	}
	return st
}

// TestAtEachMatchesLegacy: a series registered with AtEach fires in
// exactly the order, and with the same Processed counts, as one At per
// time on the frozen legacy engine, under random At, Rekey and
// Cancel calls, RunUntil cut points, Stop calls and nested series.
func TestAtEachMatchesLegacy(t *testing.T) {
	var total seriesStats
	for seed := int64(0); seed < 300; seed++ {
		total.add(compareSeriesRuns(t, fmt.Sprintf("seed %d", seed), func() func(n int) int {
			rng := rand.New(rand.NewSource(seed))
			return rng.Intn
		}))
	}
	if total.fired == 0 || total.tied == 0 || total.moved == 0 || total.canceled == 0 ||
		total.stops == 0 || total.nested == 0 || total.cuts == 0 {
		t.Fatalf("the workload left a case unexercised: %+v", total)
	}
}

// FuzzAtEach runs TestAtEachMatchesLegacy's harness on schedules
// decoded from the fuzzer's input, one byte per decision (0 once the
// input runs out).
func FuzzAtEach(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 7, 1, 0, 2, 5, 6, 6, 1, 3, 0, 4, 2, 7, 5, 1})
	f.Add([]byte("series and events tied at the same instant"))
	f.Fuzz(func(t *testing.T, data []byte) {
		compareSeriesRuns(t, fmt.Sprintf("input %x", data), func() func(n int) int {
			pos := 0
			return func(n int) int {
				if pos >= len(data) {
					return 0
				}
				pos++
				return int(data[pos-1]) % n
			}
		})
	})
}

// TestAtEachBadSeriesPanics: a series with a non-finite time, a time
// before now, or times that do not strictly increase panics before
// anything is scheduled.
func TestAtEachBadSeriesPanics(t *testing.T) {
	for _, tc := range []struct {
		name  string
		times []float64
	}{
		{"NaN", []float64{1, math.NaN(), 3}},
		{"+Inf", []float64{1, math.Inf(1)}},
		{"past", []float64{4, 6}},
		{"equal", []float64{6, 7, 7}},
		{"decreasing", []float64{6, 8, 7}},
	} {
		e := NewEngine()
		e.RunUntil(5)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: AtEach(%v) did not panic", tc.name, tc.times)
				}
			}()
			e.AtEach(tc.times, func(int) { t.Errorf("%s: series fired", tc.name) })
		}()
		if e.Pending() != 0 {
			t.Errorf("%s: a rejected series left %d events queued", tc.name, e.Pending())
		}
		// The rejected call reserved no sequence numbers: a later event
		// at 6 ties with nothing and fires.
		e.At(6, func() {})
		e.Run()
		if e.Processed() != 1 {
			t.Errorf("%s: processed %d events, want 1", tc.name, e.Processed())
		}
	}
}

// TestAtEachPendingCountsSeriesOnce: only a series' next time is
// queued, so Pending counts the series as one event until it is done.
func TestAtEachPendingCountsSeriesOnce(t *testing.T) {
	e := NewEngine()
	var fired []int
	e.AtEach([]float64{1, 2, 3}, func(i int) { fired = append(fired, i) })
	e.AtEach(nil, func(int) { t.Fatal("empty series fired") })
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d after registering a 3-time series, want 1", e.Pending())
	}
	e.RunUntil(2.5)
	if e.Pending() != 1 || fmt.Sprint(fired) != "[0 1]" {
		t.Fatalf("at 2.5: Pending() = %d, fired %v; want 1 and [0 1]", e.Pending(), fired)
	}
	e.Run()
	if e.Pending() != 0 || e.Processed() != 3 || fmt.Sprint(fired) != "[0 1 2]" {
		t.Fatalf("after Run: Pending() = %d, Processed() = %d, fired %v", e.Pending(), e.Processed(), fired)
	}
}

// TestAtEachRegistrationAllocs: registering a series allocates a
// constant number of objects, however many times it holds.
func TestAtEachRegistrationAllocs(t *testing.T) {
	register := func(n int) float64 {
		times := make([]float64, n)
		for i := range times {
			times[i] = float64(i + 1)
		}
		fn := func(int) {}
		return testing.AllocsPerRun(20, func() {
			NewEngine().AtEach(times, fn)
		})
	}
	small, large := register(2), register(10000)
	if large != small || large > 5 {
		t.Fatalf("registering 10,000 times allocates %v objects, 2 times %v; want the same constant, at most 5", large, small)
	}
}
