package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sim"
)

// This file pins the fabric's one lazy completion timer against a
// test-local reference that queues one engine event per flow, the way
// the fabric scheduled completions before it kept only the earliest
// key queued. The reference recomputes the same component, advances
// the same flows and fills by uniform increments (refFill's loop,
// which fill matches bit for bit), then cancels and re-queues the
// event of every flow whose rate changed. The two must complete the
// same flows at the same times in the same order, with the same
// Processed counts; and the fabric must queue exactly one event for
// the per-flow events of each of its fabrics.

// --- per-flow-event reference ---

type evLink struct {
	capacity  float64
	remaining float64
	count     int
	flows     []*evFlow
}

type evFlow struct {
	fabric      *evFabric
	links       []*evLink
	remaining   float64
	rateCap     float64
	rate        float64
	prevRate    float64
	lastAdvance float64
	done        func()
	onAbort     func()
	ev          *sim.Event
	index       int
	visit       int
	frozen      bool
	finished    bool
}

type evFabric struct {
	eng   *sim.Engine
	links []*evLink
	flows []*evFlow
	epoch int
}

func (fb *evFabric) start(links []*evLink, work, rateCap float64, done func()) *evFlow {
	f := &evFlow{fabric: fb, links: links, remaining: work, rateCap: rateCap, done: done, index: -1}
	if work == 0 {
		fb.eng.After(0, func() {
			if !f.finished {
				f.finished = true
				if done != nil {
					done()
				}
			}
		})
		return f
	}
	f.index = len(fb.flows)
	fb.flows = append(fb.flows, f)
	for _, l := range links {
		l.flows = append(l.flows, f)
	}
	fb.recompute(links, f)
	return f
}

func (fb *evFabric) cancel(f *evFlow) {
	if f.finished {
		return
	}
	f.finished = true
	if f.ev != nil {
		fb.eng.Cancel(f.ev)
		f.ev = nil
	}
	if f.index >= 0 {
		fb.remove(f)
		fb.recompute(f.links, nil)
	}
}

func (fb *evFabric) abort(f *evFlow) {
	if f.finished {
		return
	}
	fn := f.onAbort
	fb.cancel(f)
	if fn != nil {
		fb.eng.After(0, fn)
	}
}

func (fb *evFabric) setCapacity(l *evLink, capacity float64) {
	if capacity == l.capacity {
		return
	}
	l.capacity = capacity
	fb.recompute([]*evLink{l}, nil)
}

// remove swap-removes f from the fabric's flows, as Fabric.remove does,
// so that flow positions (and with them the order keys are stamped in)
// match; membership order on a link does not affect the rates.
func (fb *evFabric) remove(f *evFlow) {
	last := len(fb.flows) - 1
	fb.flows[f.index] = fb.flows[last]
	fb.flows[f.index].index = f.index
	fb.flows = fb.flows[:last]
	f.index = -1
	for _, l := range f.links {
		for i, g := range l.flows {
			if g == f {
				l.flows = append(l.flows[:i], l.flows[i+1:]...)
				break
			}
		}
	}
}

func (fb *evFabric) complete(f *evFlow) {
	f.finished = true
	f.ev = nil
	f.remaining = 0
	fb.remove(f)
	fb.recompute(f.links, nil)
	if f.done != nil {
		f.done()
	}
}

func (fb *evFabric) recompute(seeds []*evLink, seedFlow *evFlow) {
	now := fb.eng.Now()
	fb.epoch++
	inLinks := map[*evLink]bool{}
	var links []*evLink
	var flows []*evFlow
	for _, l := range seeds {
		if !inLinks[l] {
			inLinks[l] = true
			links = append(links, l)
		}
	}
	if seedFlow != nil {
		seedFlow.visit = fb.epoch
		flows = append(flows, seedFlow)
	}
	for i := 0; i < len(links); i++ {
		for _, f := range links[i].flows {
			if f.visit != fb.epoch {
				f.visit = fb.epoch
				flows = append(flows, f)
				for _, l := range f.links {
					if !inLinks[l] {
						inLinks[l] = true
						links = append(links, l)
					}
				}
			}
		}
	}
	for _, f := range flows {
		if f.rate > 0 {
			f.remaining -= f.rate * (now - f.lastAdvance)
			if f.remaining < 0 {
				f.remaining = 0
			}
		}
		f.lastAdvance = now
		f.prevRate = f.rate
	}
	evFill(flows, links)
	for i := 1; i < len(flows); i++ {
		for j := i; j > 0 && flows[j].index < flows[j-1].index; j-- {
			flows[j], flows[j-1] = flows[j-1], flows[j]
		}
	}
	for _, f := range flows {
		if f.rate == f.prevRate && (f.ev != nil || f.rate == 0) {
			continue
		}
		if f.ev != nil {
			fb.eng.Cancel(f.ev)
			f.ev = nil
		}
		if f.rate > 0 {
			f := f
			f.ev = fb.eng.At(now+f.remaining/f.rate, func() { fb.complete(f) })
		}
	}
}

// evFill is refFill's uniform-increment loop on the reference's types.
func evFill(flows []*evFlow, links []*evLink) {
	for _, l := range links {
		l.remaining = l.capacity
		l.count = 0
	}
	active := append([]*evFlow(nil), flows...)
	for _, f := range flows {
		f.rate = 0
		for _, l := range f.links {
			l.count++
		}
	}
	const relEps = 1e-12
	for len(active) > 0 {
		delta := math.Inf(1)
		for _, l := range links {
			if l.count > 0 {
				delta = math.Min(delta, l.remaining/float64(l.count))
			}
		}
		for _, f := range active {
			if f.rateCap > 0 {
				delta = math.Min(delta, f.rateCap-f.rate)
			}
		}
		if math.IsInf(delta, 1) {
			break
		}
		if delta < 0 {
			delta = 0
		}
		for _, f := range active {
			f.rate += delta
		}
		for _, l := range links {
			l.remaining -= delta * float64(l.count)
		}
		for i := 0; i < len(active); {
			f := active[i]
			freeze := f.rateCap > 0 && f.rate >= f.rateCap-relEps*f.rateCap
			for _, l := range f.links {
				freeze = freeze || l.remaining <= relEps*l.capacity
			}
			if !freeze {
				i++
				continue
			}
			for _, l := range f.links {
				l.count--
			}
			active[i] = active[len(active)-1]
			active = active[:len(active)-1]
		}
		if delta == 0 {
			break
		}
	}
}

// --- the churn harness ---

// churnSide is one implementation under runTimerChurn: two fabrics on
// one engine, fabric 0 with one link and fabric 1 with four.
type churnSide struct {
	eng    *sim.Engine
	start  func(fab int, links []int, work, rateCap float64, done, onAbort func()) any
	cancel func(h any)
	abort  func(h any)
	setCap func(fab, link int, capacity float64)
	// queued is how many events the fabric under test should have
	// queued: the engine's own count on the fabric, and on the
	// reference that count with each fabric's per-flow completion
	// events counted as one timer.
	queued func() int
}

var (
	churnWork = []float64{0, 1, 2, 3, 5, 8, 100}
	churnCaps = []float64{0, 0, 0.5, 1, 1.0 / 3, 4}
	churnCapy = []float64{1, 2, 3, 10, 7.5}
)

// runTimerChurn drives random starts, cancels, aborts and capacity
// changes from op events at half-second times and from inside
// completion callbacks; single-link flows, cap-only flows, zero-work
// flows and flows on any subset of fabric 1's links. Every decision
// comes from pick (a value in [0, n)), so two implementations that
// complete flows in the same order make the same calls. It returns
// the log of completions, aborts and checkpoints, each with the time,
// the Processed count and the queued-event count.
func runTimerChurn(pick func(n int) int, side churnSide) []string {
	eng := side.eng
	var log []string
	note := func(what string) {
		log = append(log, fmt.Sprintf("%g %s processed %d queued %d", eng.Now(), what, eng.Processed(), side.queued()))
	}
	handles := map[int]any{}
	var live []int
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
	start := func(depth int) {
		label := next
		next++
		fab := pick(2)
		var links []int
		if fab == 0 {
			if pick(6) > 0 {
				links = []int{0}
			}
		} else {
			mask := pick(16)
			for j := 0; j < 4; j++ {
				if mask&(1<<j) != 0 {
					links = append(links, j)
				}
			}
		}
		rateCap := churnCaps[pick(len(churnCaps))]
		if len(links) == 0 && rateCap == 0 {
			rateCap = 1
		}
		work := churnWork[pick(len(churnWork))]
		handles[label] = side.start(fab, links, work, rateCap, func() {
			drop(label)
			note(fmt.Sprintf("done f%d", label))
			if depth < 3 {
				act(depth + 1)
			}
		}, func() { note(fmt.Sprintf("abort f%d", label)) })
		live = append(live, label)
	}
	act = func(depth int) {
		for k := pick(4); k > 0; k-- {
			switch op := pick(8); {
			case op <= 3 || len(live) == 0:
				start(depth)
			case op == 4:
				l := live[pick(len(live))]
				side.cancel(handles[l])
				drop(l)
			case op == 5:
				l := live[pick(len(live))]
				side.abort(handles[l])
				drop(l)
			default:
				fab := pick(2)
				link := 0
				if fab == 1 {
					link = pick(4)
				}
				side.setCap(fab, link, churnCapy[pick(len(churnCapy))])
			}
		}
		note(fmt.Sprintf("act depth %d", depth))
	}
	for i := 1 + pick(12); i > 0; i-- {
		eng.At(float64(pick(8))/2, func() { act(0) })
	}
	eng.Run()
	note("end")
	return log
}

func fabricChurnSide() churnSide {
	eng := sim.NewEngine()
	ws := &workspace{eng: eng}
	fabs := []*Fabric{newFabric(ws), newFabric(ws)}
	links := [][]*Link{{fabs[0].addLink(&Link{}, 10)}, make([]*Link, 4)}
	for i := range links[1] {
		links[1][i] = fabs[1].addLink(&Link{}, 10)
	}
	return churnSide{
		eng: eng,
		start: func(fab int, on []int, work, rateCap float64, done, onAbort func()) any {
			ls := make([]*Link, len(on))
			for i, j := range on {
				ls[i] = links[fab][j]
			}
			f := fabs[fab].Start(ls, work, rateCap, done)
			f.SetOnAbort(onAbort)
			return f
		},
		cancel: func(h any) { h.(*Flow).Cancel() },
		abort:  func(h any) { f := h.(*Flow); f.fabric.Abort(f) },
		setCap: func(fab, link int, c float64) { fabs[fab].SetCapacity(links[fab][link], c) },
		queued: eng.Pending,
	}
}

func evChurnSide() churnSide {
	eng := sim.NewEngine()
	fabs := []*evFabric{{eng: eng}, {eng: eng}}
	fabs[0].links = []*evLink{{capacity: 10}}
	for i := 0; i < 4; i++ {
		fabs[1].links = append(fabs[1].links, &evLink{capacity: 10})
	}
	return churnSide{
		eng: eng,
		start: func(fab int, on []int, work, rateCap float64, done, onAbort func()) any {
			ls := make([]*evLink, len(on))
			for i, j := range on {
				ls[i] = fabs[fab].links[j]
			}
			f := fabs[fab].start(ls, work, rateCap, done)
			f.onAbort = onAbort
			return f
		},
		cancel: func(h any) { f := h.(*evFlow); f.fabric.cancel(f) },
		abort:  func(h any) { f := h.(*evFlow); f.fabric.abort(f) },
		setCap: func(fab, link int, c float64) { fabs[fab].setCapacity(fabs[fab].links[link], c) },
		queued: func() int {
			n := eng.Pending()
			for _, fb := range fabs {
				keyed := 0
				for _, f := range fb.flows {
					if f.ev != nil {
						keyed++
					}
				}
				if keyed > 0 {
					n -= keyed - 1
				}
			}
			return n
		},
	}
}

// compareTimerChurn runs one schedule on the reference and on Fabric
// and reports the first difference.
func compareTimerChurn(t *testing.T, label string, newPick func() func(n int) int) int {
	t.Helper()
	want := runTimerChurn(newPick(), evChurnSide())
	got := runTimerChurn(newPick(), fabricChurnSide())
	for i := 0; i < len(want) || i < len(got); i++ {
		if i >= len(want) || i >= len(got) || got[i] != want[i] {
			t.Fatalf("%s: diverged at entry %d:\n  fabric:    %s\n  reference: %s",
				label, i, strings.Join(got, "\n    "), strings.Join(want, "\n    "))
		}
	}
	return len(want)
}

// TestFabricTimerMatchesPerFlowEvents: under random churn on a
// single-link and a multi-component fabric, the one-timer fabric
// completes the same flows at the same times, in the same order and
// with the same Processed counts as one event per flow, while queuing
// one event per fabric in their place.
func TestFabricTimerMatchesPerFlowEvents(t *testing.T) {
	entries := 0
	for seed := int64(0); seed < 300; seed++ {
		entries += compareTimerChurn(t, fmt.Sprintf("seed %d", seed), func() func(n int) int {
			return rand.New(rand.NewSource(seed)).Intn
		})
	}
	if entries < 3000 {
		t.Fatalf("the churn logged only %d entries over 300 seeds", entries)
	}
}

// FuzzFabricTimer runs TestFabricTimerMatchesPerFlowEvents' harness on
// schedules decoded from the fuzzer's input, one byte per decision (0
// once the input runs out).
func FuzzFabricTimer(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 0, 3, 0, 0, 1, 2, 3, 1, 1, 15, 2, 4, 3, 4, 0, 5, 6, 1, 2, 7})
	f.Add([]byte("cancel and abort the earliest flow of a fabric"))
	f.Fuzz(func(t *testing.T, data []byte) {
		compareTimerChurn(t, fmt.Sprintf("input %x", data), func() func(n int) int {
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
