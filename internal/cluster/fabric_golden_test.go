package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// This file pins the incremental Fabric against a frozen copy of the
// pre-incremental implementation (global progressive filling on every
// change, advance-all, reschedule-all). The golden property is:
//
//   - When the whole fabric is one connected component (every flow on
//     one shared link), the incremental recompute performs bit-for-bit
//     the same progressive-filling arithmetic as the global reference,
//     so all rates must be EXACTLY equal at every sample point — not
//     merely within a tolerance.
//   - On arbitrary multi-link topologies the component decomposition
//     changes the order in which uniform increments accumulate, which
//     is exact-math-equal but may differ in the last ulps; rates and
//     completion times must agree to 1e-9 relative.
//
// A same-seed run-twice test additionally pins the incremental
// implementation's own determinism on a multi-component churn schedule.

// --- frozen reference implementation (pre-incremental Fabric) ---

type refLink struct {
	capacity  float64
	remaining float64
	count     int
}

type refFlow struct {
	links       []*refLink
	remaining   float64
	rateCap     float64
	rate        float64
	lastAdvance float64
	done        func()
	ev          *sim.Event
	index       int
	frozen      bool
	finished    bool
}

type refFabric struct {
	eng   *sim.Engine
	links []*refLink
	flows []*refFlow
}

func (fb *refFabric) addLink(capacity float64) *refLink {
	l := &refLink{capacity: capacity}
	fb.links = append(fb.links, l)
	return l
}

func (fb *refFabric) start(links []*refLink, work, rateCap float64, done func()) *refFlow {
	f := &refFlow{links: links, remaining: work, rateCap: rateCap, done: done, index: -1}
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
	fb.recompute()
	return f
}

func (fb *refFabric) cancel(f *refFlow) {
	if f == nil || f.finished {
		return
	}
	f.finished = true
	if f.ev != nil {
		fb.eng.Cancel(f.ev)
		f.ev = nil
	}
	if f.index >= 0 {
		fb.remove(f)
		fb.recompute()
	}
}

func (fb *refFabric) remove(f *refFlow) {
	i := f.index
	last := len(fb.flows) - 1
	fb.flows[i] = fb.flows[last]
	fb.flows[i].index = i
	fb.flows[last] = nil
	fb.flows = fb.flows[:last]
	f.index = -1
}

func (fb *refFabric) complete(f *refFlow) {
	if f.finished {
		return
	}
	f.finished = true
	f.ev = nil
	f.remaining = 0
	fb.remove(f)
	fb.recompute()
	if f.done != nil {
		f.done()
	}
}

func (fb *refFabric) recompute() {
	now := fb.eng.Now()
	for _, f := range fb.flows {
		if f.rate > 0 {
			f.remaining -= f.rate * (now - f.lastAdvance)
			if f.remaining < 0 {
				f.remaining = 0
			}
		}
		f.lastAdvance = now
	}
	for _, l := range fb.links {
		l.remaining = l.capacity
		l.count = 0
	}
	unfrozen := 0
	for _, f := range fb.flows {
		f.frozen = false
		f.rate = 0
		unfrozen++
		for _, l := range f.links {
			l.count++
		}
	}
	const relEps = 1e-12
	for unfrozen > 0 {
		delta := math.Inf(1)
		for _, l := range fb.links {
			if l.count > 0 {
				if share := l.remaining / float64(l.count); share < delta {
					delta = share
				}
			}
		}
		for _, f := range fb.flows {
			if !f.frozen && f.rateCap > 0 {
				if room := f.rateCap - f.rate; room < delta {
					delta = room
				}
			}
		}
		if math.IsInf(delta, 1) {
			break
		}
		if delta < 0 {
			delta = 0
		}
		for _, f := range fb.flows {
			if !f.frozen {
				f.rate += delta
			}
		}
		for _, l := range fb.links {
			l.remaining -= delta * float64(l.count)
		}
		for _, f := range fb.flows {
			if f.frozen {
				continue
			}
			freeze := false
			if f.rateCap > 0 && f.rate >= f.rateCap-relEps*f.rateCap {
				freeze = true
			}
			if !freeze {
				for _, l := range f.links {
					if l.remaining <= relEps*l.capacity {
						freeze = true
						break
					}
				}
			}
			if freeze {
				f.frozen = true
				unfrozen--
				for _, l := range f.links {
					l.count--
				}
			}
		}
		if delta == 0 && unfrozen > 0 {
			for _, f := range fb.flows {
				if !f.frozen {
					f.frozen = true
					unfrozen--
					for _, l := range f.links {
						l.count--
					}
				}
			}
		}
	}
	for _, f := range fb.flows {
		if f.ev != nil {
			fb.eng.Cancel(f.ev)
			f.ev = nil
		}
		f.lastAdvance = now
		if f.rate > 0 {
			f := f
			f.ev = fb.eng.After(f.remaining/f.rate, func() { fb.complete(f) })
		}
	}
}

// --- randomized churn schedules ---

type goldenOp struct {
	at       float64
	links    []int // indices into the topology's links; nil = cap-only
	work     float64
	rateCap  float64
	cancelAt float64 // < 0: never canceled
}

// goldenSchedule draws a randomized churn schedule: flows starting at
// random times on random link subsets, some rate-capped, some canceled
// mid-flight. maxLinksPerFlow <= len(caps); capOnly additionally mixes
// in flows with no links at all (instant-transfer style).
func goldenSchedule(seed int64, nOps int, nLinks, maxLinksPerFlow int, withCaps, capOnly bool) []goldenOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]goldenOp, 0, nOps)
	for i := 0; i < nOps; i++ {
		op := goldenOp{
			at:       rng.Float64() * 40,
			work:     1 + rng.Float64()*300,
			cancelAt: -1,
		}
		if capOnly && rng.Intn(8) == 0 {
			op.rateCap = 1 + rng.Float64()*50
		} else {
			k := 1 + rng.Intn(maxLinksPerFlow)
			perm := rng.Perm(nLinks)
			op.links = perm[:k]
			if withCaps && rng.Intn(3) == 0 {
				op.rateCap = 1 + rng.Float64()*40
			}
		}
		if rng.Intn(4) == 0 {
			op.cancelAt = op.at + rng.Float64()*10
		}
		ops = append(ops, op)
	}
	return ops
}

// sampleTimes used to probe rates; offset from round numbers so samples
// never collide with the integer-ish times of symmetric completions.
func sampleTimes() []float64 {
	ts := make([]float64, 0, 60)
	for t := 0.777; t < 60; t += 0.97731 {
		ts = append(ts, t)
	}
	return ts
}

// runGoldenNew drives the incremental Fabric through a schedule,
// recording per-op rates at each sample time (NaN when inactive) and
// completion times (NaN when never completed).
func runGoldenNew(caps []float64, ops []goldenOp) (samples [][]float64, doneAt []float64) {
	eng := sim.NewEngine()
	eng.MaxEvents = 5_000_000
	fb := NewFabric(eng, "golden")
	links := make([]*Link, len(caps))
	for i, c := range caps {
		links[i] = fb.AddLink(fmt.Sprintf("l%d", i), c)
	}
	flows := make([]*Flow, len(ops))
	doneAt = make([]float64, len(ops))
	for i := range doneAt {
		doneAt[i] = math.NaN()
	}
	for i, op := range ops {
		i, op := i, op
		eng.At(op.at, func() {
			var ls []*Link
			for _, li := range op.links {
				ls = append(ls, links[li])
			}
			flows[i] = fb.Start(ls, op.work, op.rateCap, func() { doneAt[i] = eng.Now() })
		})
		if op.cancelAt >= 0 {
			eng.At(op.cancelAt, func() { fb.Cancel(flows[i]) })
		}
	}
	for _, st := range sampleTimes() {
		st := st
		eng.At(st, func() {
			row := make([]float64, len(ops))
			for i, f := range flows {
				if f == nil || f.Done() {
					row[i] = math.NaN()
				} else {
					row[i] = f.Rate()
				}
			}
			samples = append(samples, row)
		})
	}
	eng.Run()
	return samples, doneAt
}

// runGoldenRef drives the frozen reference through the same schedule.
func runGoldenRef(caps []float64, ops []goldenOp) (samples [][]float64, doneAt []float64) {
	eng := sim.NewEngine()
	eng.MaxEvents = 5_000_000
	fb := &refFabric{eng: eng}
	links := make([]*refLink, len(caps))
	for i, c := range caps {
		links[i] = fb.addLink(c)
	}
	flows := make([]*refFlow, len(ops))
	doneAt = make([]float64, len(ops))
	for i := range doneAt {
		doneAt[i] = math.NaN()
	}
	for i, op := range ops {
		i, op := i, op
		eng.At(op.at, func() {
			var ls []*refLink
			for _, li := range op.links {
				ls = append(ls, links[li])
			}
			flows[i] = fb.start(ls, op.work, op.rateCap, func() { doneAt[i] = eng.Now() })
		})
		if op.cancelAt >= 0 {
			eng.At(op.cancelAt, func() { fb.cancel(flows[i]) })
		}
	}
	for _, st := range sampleTimes() {
		st := st
		eng.At(st, func() {
			row := make([]float64, len(ops))
			for i, f := range flows {
				if f == nil || f.finished {
					row[i] = math.NaN()
				} else {
					row[i] = f.rate
				}
			}
			samples = append(samples, row)
		})
	}
	eng.Run()
	return samples, doneAt
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return d
	}
	return d / m
}

func compareGolden(t *testing.T, caps []float64, ops []goldenOp, exactRates bool, timeTol float64) {
	t.Helper()
	newS, newD := runGoldenNew(caps, ops)
	refS, refD := runGoldenRef(caps, ops)
	if len(newS) != len(refS) {
		t.Fatalf("sample count differs: %d vs %d", len(newS), len(refS))
	}
	for si := range newS {
		for i := range ops {
			nv, rv := newS[si][i], refS[si][i]
			if math.IsNaN(nv) != math.IsNaN(rv) {
				t.Fatalf("sample %d flow %d: active in one fabric only (new=%v ref=%v)", si, i, nv, rv)
			}
			if math.IsNaN(nv) {
				continue
			}
			if exactRates {
				if nv != rv {
					t.Fatalf("sample %d flow %d: rate %v != reference %v (diff %g, want bit-exact)",
						si, i, nv, rv, nv-rv)
				}
			} else if relDiff(nv, rv) > 1e-9 {
				t.Fatalf("sample %d flow %d: rate %v vs reference %v beyond 1e-9", si, i, nv, rv)
			}
		}
	}
	for i := range ops {
		if math.IsNaN(newD[i]) != math.IsNaN(refD[i]) {
			t.Fatalf("flow %d: completed in one fabric only (new=%v ref=%v)", i, newD[i], refD[i])
		}
		if math.IsNaN(newD[i]) {
			continue
		}
		if timeTol == 0 {
			if newD[i] != refD[i] {
				t.Fatalf("flow %d: completion %v != reference %v (want bit-exact)", i, newD[i], refD[i])
			}
		} else if relDiff(newD[i], refD[i]) > timeTol {
			t.Fatalf("flow %d: completion %v vs reference %v beyond %g", i, newD[i], refD[i], timeTol)
		}
	}
}

// TestGoldenSingleLinkUncapped: one shared bottleneck, no caps. The
// fabric is always a single component, every change reshapes every
// fair share, and the incremental implementation must replay the
// reference bit-for-bit: exact rates AND exact completion times.
func TestGoldenSingleLinkUncapped(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		ops := goldenSchedule(seed, 40, 1, 1, false, false)
		compareGolden(t, []float64{100}, ops, true, 0)
	}
}

// TestGoldenSingleLinkCapped: one shared link with rate-capped flows
// mixed in. Rates must still be bit-exact (same single-component
// filling); completion times of cap-stable flows are allowed ulp-level
// drift, because the incremental fabric deliberately does not re-round
// an unchanged flow's completion event while the reference reschedules
// everything on every change.
func TestGoldenSingleLinkCapped(t *testing.T) {
	for seed := int64(100); seed < 110; seed++ {
		ops := goldenSchedule(seed, 40, 1, 1, true, false)
		compareGolden(t, []float64{100}, ops, true, 1e-9)
	}
}

// TestGoldenMultiLink: a six-link topology with multi-link flows,
// caps, cap-only flows and cancels. Component decomposition re-orders
// the uniform-increment accumulation (exact-math equivalent, ulp-level
// float drift), so rates and times are pinned to 1e-9 relative.
func TestGoldenMultiLink(t *testing.T) {
	caps := []float64{90, 117, 117, 500, 45, 80}
	for seed := int64(200); seed < 215; seed++ {
		ops := goldenSchedule(seed, 60, len(caps), 3, true, true)
		compareGolden(t, caps, ops, false, 1e-9)
	}
}

// TestGoldenSameSeedIdentical: the incremental fabric run twice on the
// same multi-component churn schedule must produce bit-identical
// samples and completion times — determinism does not depend on any
// map iteration, pointer ordering, or allocation pattern.
func TestGoldenSameSeedIdentical(t *testing.T) {
	caps := []float64{90, 117, 117, 500, 45, 80}
	ops := goldenSchedule(7, 80, len(caps), 3, true, true)
	s1, d1 := runGoldenNew(caps, ops)
	s2, d2 := runGoldenNew(caps, ops)
	for si := range s1 {
		for i := range ops {
			v1, v2 := s1[si][i], s2[si][i]
			if v1 != v2 && !(math.IsNaN(v1) && math.IsNaN(v2)) {
				t.Fatalf("sample %d flow %d: %v vs %v across identical runs", si, i, v1, v2)
			}
		}
	}
	for i := range ops {
		v1, v2 := d1[i], d2[i]
		if v1 != v2 && !(math.IsNaN(v1) && math.IsNaN(v2)) {
			t.Fatalf("flow %d completion: %v vs %v across identical runs", i, v1, v2)
		}
	}
}
