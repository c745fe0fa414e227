// Package cluster models the hardware substrate of a MapReduce cluster:
// nodes with CPUs, memory, disks and NICs arranged in racks. Shared
// channels (disk bandwidth, NIC bandwidth, rack uplinks, CPU pools) are
// modelled as max-min fair-shared links; concurrent flows on a link
// progress at the fair-share rate, recomputed event-driven whenever a
// flow starts or finishes. This reproduces the contention effects
// (spill I/O, shuffle congestion, CPU caps from container vcores) that
// MRONLINE's tuning exploits on the paper's physical 19-node cluster.
//
// Fair-share recomputation is incremental: each link keeps a membership
// list of its active flows, and a flow change only recomputes the
// connected component of links and flows reachable from the changed
// flow. Flows in other components keep their rates and their completion
// keys untouched (see docs/MODEL.md, "Fabric complexity & incremental
// recomputation").
//
// Completions are lazy: a flow holds the engine key (Engine.Stamp) its
// completion would be scheduled under, and a fabric queues one event,
// its timer, at the earliest of its flows' keys. Keys are stamped
// exactly when a per-flow event would be scheduled or moved, so the
// timer fires each completion at the same place in the engine's order
// as that flow's own event would, while the heap holds one event per
// fabric rather than one per flow.
//
// Units: data quantities are in MB (1e6 bytes) and rates in MB/s; CPU
// work is in core-seconds and CPU rates in cores. Time is in seconds.
package cluster

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/sim"
)

// Link is a capacity-constrained shared channel: a disk, a NIC
// direction, a rack uplink, or a node's CPU pool.
type Link struct {
	Capacity float64 // units per second

	// flows is the membership list of active flows crossing this link,
	// maintained by Fabric.Start and Fabric.remove. Order is insertion
	// order perturbed by swap-removal — deterministic, but arbitrary.
	flows []*Flow

	fabric *Fabric // the fabric the link was registered with

	// scratch state for the progressive-filling computation
	remaining float64
	count     int32  // unfrozen flows crossing the link
	id        int32  // position in the owning fabric's links
	visit     uint64 // recompute epoch this link was last swept into
}

// Name returns the link's name: the one given to AddLink, or, in a
// cluster, the one its role implies (node03/nic-in, rack1/uplink). A
// link no fabric registered has no name.
func (l *Link) Name() string {
	if l.fabric == nil {
		return ""
	}
	return l.fabric.ws.name(l)
}

// CurrentRate returns the aggregate rate currently flowing on the link,
// summed over its flows.
func (l *Link) CurrentRate() float64 {
	sum := 0.0
	for _, f := range l.flows {
		sum += f.rate
	}
	return sum
}

// inlineLinks is how many per-link membership positions a Flow stores
// without a separate allocation; transfers cross at most four links
// (two NICs plus two rack uplinks).
const inlineLinks = 4

// Flow is an in-progress transfer or computation consuming fair-share
// capacity on one or more links, optionally bounded by a rate cap (for
// CPU flows, the container's vcore allowance). A flow drops its done
// and onAbort callbacks when it finishes, so a finished flow that is
// still referenced (from a scratch buffer or a finished owner) pins
// nothing its callbacks captured.
type Flow struct {
	fabric      *Fabric
	links       []*Link
	remaining   float64
	rateCap     float64 // 0 means unlimited
	rate        float64
	prevRate    float64 // scratch: rate on entry to the current recompute
	lastAdvance float64
	done        func()
	// onComplete is the cached completion callback, allocated once in
	// Start so that moving the fabric's timer to this flow stays
	// allocation-free. A zero-work flow's completion event runs it too.
	onComplete func()
	// key is where the flow's completion sits in the engine's order,
	// stamped when its rate last changed; zero while the rate is zero
	// and once the flow has finished. Cancel and complete clear it only
	// after the recompute that moves the timer off the flow, which reads
	// it there. The fabric's timer is queued under the least key of its
	// flows.
	key sim.Key
	// ev is the fabric's timer while this flow is the fabric's first,
	// and nil otherwise.
	ev       *sim.Event
	index    int                // position in fabric.flows, -1 when inactive
	pos      [inlineLinks]int32 // this flow's index in links[i].flows
	posX     []int32            // spill positions for flows crossing more links
	visit    uint64             // recompute epoch this flow was last swept into
	frozen   bool               // scratch: the current filling has fixed the rate
	finished bool
	pooled   bool // sitting in a free list (guards double-recycle)
	// zero marks a zero-work flow whose zero-delay completion event,
	// which runs onComplete, has not fired yet. Until it has, the flow
	// is not recycled: the event would reach the object's next owner.
	zero bool
	// onAbort, when set, is scheduled (asynchronously) if the flow is
	// torn down by Fabric.Abort — a fault, not a cancellation by the
	// flow's owner — so remote consumers can fail over instead of
	// waiting forever on a done callback that will never fire.
	onAbort func()
}

func (f *Flow) linkPos(i int) int {
	if i < inlineLinks {
		return int(f.pos[i])
	}
	return int(f.posX[i-inlineLinks])
}

func (f *Flow) setLinkPos(i, p int) {
	if i < inlineLinks {
		f.pos[i] = int32(p)
		return
	}
	f.posX[i-inlineLinks] = int32(p)
}

// Cancel aborts the flow; its done callback will not fire. Canceling
// a completed flow is a no-op.
func (f *Flow) Cancel() { f.fabric.Cancel(f) }

// SetOnAbort registers fn to run (asynchronously) if the flow is killed
// by Fabric.Abort — e.g. when the node it crosses crashes. fn does not
// run on normal completion or on Cancel.
func (f *Flow) SetOnAbort(fn func()) { f.onAbort = fn }

// Fabric manages a set of links whose flows may interact (share links).
// Separate resource domains (each node's disk, each node's CPU pool,
// the cluster network) use separate fabrics so that rate recomputation
// stays local to the domain; within a fabric, recomputation stays local
// to the connected component of the changed flow.
type Fabric struct {
	links []*Link
	flows []*Flow
	// ws is the engine, the recompute scratch and the flow free list,
	// shared by every fabric of a cluster.
	ws *workspace
	// first is the flow with the least key, nil when no flow has one.
	// It holds the fabric's one queued completion event, its timer,
	// under that key and running its onComplete (first.ev). Knowing
	// the flow spares a recompute from loading the queued event.
	first *Flow
}

// Name returns the fabric's name: the one given to NewFabric, or, in a
// cluster, the one its role implies (network, node03/disk).
func (fb *Fabric) Name() string { return fb.ws.name(fb) }

// workspace is what the fabrics and memory pools of one cluster share:
// the engine, the recompute epoch and scratch, the free list of
// recycled flows, and the way to their names. cluster.New gives all of
// its fabrics one, so the scratch is sized by the largest component
// any fabric sweeps rather than once per node, and a flow finished on
// one node's disk can serve the next Start on any fabric. Sharing is
// safe because recompute runs no callbacks (it only stamps keys and
// moves a timer), so it never re-enters, and one goroutine drives a
// cluster. No two clusters share a workspace, so clusters on separate
// engines can run on separate goroutines.
type workspace struct {
	eng *sim.Engine

	// cluster, when set, names the topology it built by role (see
	// Cluster.topologyName), so no link, fabric or pool stores a name;
	// names holds the names given to NewFabric, AddLink and NewMemPool.
	// Only panics and errors read either.
	cluster *Cluster
	names   map[any]string

	// epoch is the recompute generation for visit stamps. It is shared,
	// so every stamp on a link or flow of the cluster, a recycled flow's
	// included, is below the epoch of the next sweep.
	epoch uint64

	// Scratch slices reused across recomputations to keep the hot path
	// allocation-free; contents are only valid during one recompute.
	// They hold positions in the recomputing fabric's links and flows
	// rather than pointers, so filling them costs no GC write barriers.
	dirtyLinks []int32
	dirtyFlows []int32
	// capped and live are progressive filling's worklists of unfrozen
	// capped flows and of links still carrying unfrozen flows (both
	// compacted by swap-removal); exhausted lists the links that ran
	// out of capacity in the current round.
	capped    []int32
	live      []int32
	exhausted []int32
	// marks is sortIndices' bitmap over flow positions, all zero
	// between calls.
	marks []uint64

	// free is the pool of recycled Flow objects (see Flow.Recycle):
	// owners that provably hold the last reference hand finished flows
	// back so a steady stream of Starts stops allocating.
	free []*Flow
}

// name returns obj's name for a panic or an error message.
func (ws *workspace) name(obj any) string {
	if s, ok := ws.names[obj]; ok {
		return s
	}
	if ws.cluster != nil {
		return ws.cluster.topologyName(obj)
	}
	return ""
}

// nameAs records the name obj was given at construction.
func (ws *workspace) nameAs(obj any, name string) {
	if ws.names == nil {
		ws.names = make(map[any]string)
	}
	ws.names[obj] = name
}

// newFabric returns an empty fabric that schedules on ws's engine,
// recomputes in ws and recycles flows through it.
func newFabric(ws *workspace) *Fabric {
	return &Fabric{ws: ws}
}

// addLink registers l, whose memory the caller provides, with the
// fabric and returns it.
func (fb *Fabric) addLink(l *Link, capacity float64) *Link {
	l.fabric = fb
	if capacity <= 0 {
		panic(fmt.Sprintf("cluster: link %q must have positive capacity, got %v", l.Name(), capacity))
	}
	l.Capacity = capacity
	l.id = int32(len(fb.links))
	fb.links = append(fb.links, l) //mrlint:ignore retained-append one entry per topology link, built once at construction
	return l
}

// Start begins a flow of `work` units across the given links, at most
// rateCap units/s (0 = unlimited), invoking done when the work
// completes. Links must belong to this fabric and must be distinct. A
// flow must be constrained by at least one link or a positive rate cap.
func (fb *Fabric) Start(links []*Link, work, rateCap float64, done func()) *Flow {
	f := fb.add(links, work, rateCap, done)
	if f.index >= 0 {
		fb.recompute(links, f)
	}
	return f
}

// add validates a flow and attaches it to the fabric's flow list and
// its links' membership lists without rebalancing: the caller runs the
// recompute. A zero-work flow never enters the fabric (its index stays
// -1); its completion is scheduled at once instead.
func (fb *Fabric) add(links []*Link, work, rateCap float64, done func()) *Flow {
	if len(links) == 0 && rateCap <= 0 {
		panic("cluster: flow with no links and no rate cap would be infinitely fast")
	}
	if work < 0 || math.IsNaN(work) || math.IsInf(work, 0) {
		panic(fmt.Sprintf("cluster: invalid flow work %v", work))
	}
	for i, l := range links {
		// Recompute scratch addresses links by their position in
		// fb.links, so a foreign link would alias one of ours.
		if l.fabric != fb {
			panic(fmt.Sprintf("cluster: link %q does not belong to fabric %q", l.Name(), fb.Name()))
		}
		for j := 0; j < i; j++ {
			if l == links[j] {
				panic(fmt.Sprintf("cluster: flow lists link %q twice", l.Name()))
			}
		}
	}
	f := fb.newFlow()
	f.links = links
	f.remaining = work
	f.rateCap = rateCap
	f.done = done
	if f.onComplete == nil {
		f.onComplete = func() { f.fabric.complete(f) }
	}
	if work == 0 {
		// Zero-size work completes immediately (but asynchronously, to
		// keep callback ordering uniform): one zero-delay event runs the
		// flow's onComplete. The flow never enters the fabric lists.
		f.index = -1
		f.zero = true
		fb.ws.eng.After(0, f.onComplete)
		return f
	}
	if n := len(links); n > inlineLinks {
		if need := n - inlineLinks; cap(f.posX) >= need {
			f.posX = f.posX[:need]
		} else {
			f.posX = make([]int32, need)
		}
	}
	f.index = len(fb.flows)
	fb.flows = append(fb.flows, f)
	for i, l := range links {
		f.setLinkPos(i, len(l.flows))
		l.flows = append(l.flows, f)
	}
	return f
}

// newFlow pops a recycled Flow, possibly finished on another fabric,
// or allocates a fresh one. Pooled flows keep their cached onComplete
// closure (it captures only the flow and resolves f.fabric when
// called) and their posX capacity.
func (fb *Fabric) newFlow() *Flow {
	ws := fb.ws
	if n := len(ws.free); n > 0 {
		f := ws.free[n-1]
		ws.free[n-1] = nil
		ws.free = ws.free[:n-1]
		f.fabric = fb
		f.pooled = false
		f.finished = false
		return f
	}
	return &Flow{fabric: fb}
}

// recycleFlow resets a flow that has fully left the fabric and parks
// it in the free list. Its visit stamp stays: the epoch is the
// cluster's, so the stamp is below any later sweep's. Flows in flight
// or already pooled are left alone, so callers may invoke it
// unconditionally during teardown. So is a zero-work flow whose
// completion event is still queued (one canceled before it fired):
// the event would otherwise run the flow's next owner's completion. A
// finished flow holds no key, so no timer can fire it.
func (fb *Fabric) recycleFlow(f *Flow) {
	if f.pooled || !f.finished || f.index >= 0 || f.zero {
		return
	}
	f.pooled = true
	f.links = nil
	f.remaining = 0
	f.rateCap = 0
	f.rate = 0
	f.prevRate = 0
	f.lastAdvance = 0
	f.done = nil
	f.onAbort = nil
	fb.ws.free = append(fb.ws.free, f)
}

// Recycle hands a finished flow back to its fabric's free list (in a
// cluster, the list all its fabrics share) for reuse by a future
// Start. Strict ownership contract: call it only when you hold the
// last reference — after Recycle the object may be handed to an
// unrelated Start, on any fabric, so a retained pointer must never be
// Canceled or inspected again. Unfinished, still-queued, and
// already-recycled flows are ignored, and so are zero-work flows whose
// completion event has not fired, which makes Recycle safe to call
// unconditionally when tearing down a completed owner.
func (f *Flow) Recycle() {
	if f == nil {
		return
	}
	f.fabric.recycleFlow(f)
}

// Cancel aborts a flow; done is not called.
func (fb *Fabric) Cancel(f *Flow) {
	if f == nil || f.finished {
		return
	}
	f.finished = true
	f.done, f.onAbort = nil, nil
	if f.index >= 0 {
		fb.remove(f)
		fb.recompute(f.links, nil)
	}
	f.key = sim.Key{}
}

// Abort tears a flow down like Cancel, then schedules the flow's
// registered onAbort callback (if any). Used by fault injection: the
// owner did not ask for the teardown, so it must be told.
func (fb *Fabric) Abort(f *Flow) {
	if f == nil || f.finished {
		return
	}
	fn := f.onAbort
	fb.Cancel(f)
	if fn != nil {
		fb.ws.eng.After(0, fn)
	}
}

// SetCapacity changes a link's capacity in place and rebalances the
// link's connected component. Fault injection uses it to model slow
// nodes, degraded disks and flapping NICs; in-flight flows simply
// continue at the recomputed fair-share rates.
func (fb *Fabric) SetCapacity(l *Link, capacity float64) {
	if capacity <= 0 {
		panic(fmt.Sprintf("cluster: link %q capacity must stay positive, got %v", l.Name(), capacity))
	}
	if capacity == l.Capacity {
		return
	}
	l.Capacity = capacity
	fb.recompute([]*Link{l}, nil)
}

// remove detaches f from the fabric's flow list and from every link's
// membership list (swap-removal, fixing up the moved entries' indices).
func (fb *Fabric) remove(f *Flow) {
	i := f.index
	last := len(fb.flows) - 1
	fb.flows[i] = fb.flows[last]
	fb.flows[i].index = i
	fb.flows[last] = nil
	fb.flows = fb.flows[:last]
	f.index = -1
	for li, l := range f.links {
		p := f.linkPos(li)
		lastF := len(l.flows) - 1
		moved := l.flows[lastF]
		l.flows[p] = moved
		l.flows[lastF] = nil
		l.flows = l.flows[:lastF]
		if moved != f {
			for mi, ml := range moved.links {
				if ml == l {
					moved.setLinkPos(mi, p)
					break
				}
			}
		}
	}
}

// complete runs when the timer fires: f is the fabric's first. The
// fired event now belongs to the engine again, so recompute queues a
// new timer for the flows left. It also runs a zero-work flow's
// completion event, which finishes the flow unless it was canceled.
func (fb *Fabric) complete(f *Flow) {
	if f.zero {
		f.zero = false
		if f.finished {
			return // canceled before its event fired
		}
		f.finished = true
		done := f.done
		f.done, f.onAbort = nil, nil
		if done != nil {
			done()
		}
		return
	}
	f.ev = nil
	f.finished = true
	f.remaining = 0
	done := f.done
	f.done, f.onAbort = nil, nil
	fb.remove(f)
	// Recompute before the callback so that work started inside the
	// callback, and any load it reads, sees up-to-date rates.
	fb.recompute(f.links, nil)
	f.key = sim.Key{}
	if done != nil {
		done()
	}
}

// recompute rebalances fair-share rates after a flow change. seeds are
// the changed flows' links (still attached for a start, already
// detached for a completion or cancel — which is what lets a component
// split apart); seedFlow, when non-nil, is a newly started flow that
// must be included even when it has no links (cap-only flows form
// singleton components). When the change removed the fabric's first,
// that flow still holds its key, and recompute reads it there.
//
// Only the connected component of links and flows reachable from the
// seeds is touched: their work is advanced to now at the old rates,
// rates are recomputed with progressive filling (see fill), and
// completion keys are stamped — but only for flows whose rate actually
// changed (exact float comparison: an epsilon window would make the
// outcome depend on accumulated drift and break reproducibility). Flows
// outside the component share no link with any flow inside it,
// transitively, so their fair-share rates — and therefore their
// completion keys — are provably unaffected. Last, the timer moves to
// the fabric's new earliest key.
func (fb *Fabric) recompute(seeds []*Link, seedFlow *Flow) {
	ws := fb.ws
	now := ws.eng.Now()

	// Sweep out the connected component (links and flows) from the
	// seeds. visit stamps make membership checks O(1) without clearing.
	ws.epoch++
	ep := ws.epoch
	links := ws.dirtyLinks[:0]
	flows := ws.dirtyFlows[:0]
	for _, l := range seeds {
		if l.visit != ep {
			l.visit = ep
			links = append(links, l.id)
		}
	}
	if seedFlow != nil && seedFlow.visit != ep {
		seedFlow.visit = ep
		flows = append(flows, int32(seedFlow.index))
	}
	for i := 0; i < len(links); i++ {
		for _, f := range fb.links[links[i]].flows {
			if f.visit != ep {
				f.visit = ep
				flows = append(flows, int32(f.index))
				for _, fl := range f.links {
					if fl.visit != ep {
						fl.visit = ep
						links = append(links, fl.id)
					}
				}
			}
		}
	}
	// Keep grown capacity for the next recompute; storing only on growth
	// spares the slice-header write barrier on every call.
	if cap(links) > cap(ws.dirtyLinks) {
		ws.dirtyLinks = links
	}
	if cap(flows) > cap(ws.dirtyFlows) {
		ws.dirtyFlows = flows
	}

	// cur holds the timer; removed records that the change took it out
	// of the fabric.
	cur := fb.first
	removed := cur != nil && cur.index < 0
	if len(flows) == 0 {
		// The changed flow was the last one on its links. If it held
		// the timer, the earliest flow is elsewhere.
		if removed {
			fb.arm(fb.earliest())
		}
		return
	}

	// Advance the component's remaining work at the old rates before
	// changing them. Untouched flows keep accruing at their (still
	// valid) rates; they are advanced whenever their component is next
	// recomputed or their completion fires.
	for _, fi := range flows {
		f := fb.flows[fi]
		if f.rate > 0 {
			f.remaining -= f.rate * (now - f.lastAdvance)
			if f.remaining < 0 {
				f.remaining = 0
			}
		}
		f.lastAdvance = now
		f.prevRate = f.rate
	}

	fb.fill(flows, links)

	// Stamp completion keys for flows whose rate changed. Iterate in
	// fabric insertion-array order so that key stamping order matches
	// a whole-fabric recomputation; a flow's position is its index, so
	// that order is an index sort.
	fb.sortIndices(flows)
	// Move the timer to the fabric's new earliest key. old is cur's key
	// before the change; rescan records that cur is gone or in the
	// component, whose keys may have moved.
	var old sim.Key
	rescan := removed
	if removed {
		old = cur.key
	}
	var first *Flow // the component's earliest keyed flow once stamped
	var firstKey sim.Key
	for _, fi := range flows {
		f := fb.flows[fi]
		k := f.key
		if f == cur {
			rescan, old = true, k
		}
		if f.rate != f.prevRate || k == (sim.Key{}) && f.rate != 0 {
			// The rate moved (or a new flow got its first): stamp where
			// a completion event scheduled now would sit. A zero rate
			// has no completion.
			k = sim.Key{}
			if f.rate > 0 {
				k = ws.eng.Stamp(now + f.remaining/f.rate)
			}
			f.key = k
		}
		// Otherwise the rate is bit-identical to before: the key is
		// still exact, leave it alone.
		if k.Before(firstKey) {
			first, firstKey = f, k
		}
	}
	// Keys outside the component did not move and none was before
	// old. So when cur is outside, first takes the timer only if it is
	// before cur. When cur is gone or in the component, first is the
	// earliest if it is before old, or if it is cur with its old key,
	// or if the component holds every flow; only otherwise are all the
	// fabric's flows scanned.
	switch {
	case !rescan:
		if first == nil || cur != nil && !firstKey.Before(cur.key) {
			return
		}
	case firstKey == old:
		return
	case firstKey.Before(old):
	case len(flows) < len(fb.flows):
		first = fb.earliest()
	}
	fb.arm(first)
}

// earliest returns the fabric's flow with the least key, or nil when
// no flow has a key.
func (fb *Fabric) earliest() *Flow {
	var first *Flow
	var firstKey sim.Key
	for _, f := range fb.flows {
		if f.key.Before(firstKey) {
			first, firstKey = f, f.key
		}
	}
	return first
}

// arm makes first the fabric's first: it takes the timer from the old
// first, if that still holds a queued one, and moves it to first's key
// to run first's onComplete, or queues a new one. A nil first takes the
// timer off the queue. The caller has checked that the timer must move.
func (fb *Fabric) arm(first *Flow) {
	eng := fb.ws.eng
	var ev *sim.Event
	if cur := fb.first; cur != nil {
		ev, cur.ev = cur.ev, nil
	}
	fb.first = first
	switch {
	case first == nil:
		if ev != nil {
			eng.Cancel(ev)
		}
	case ev == nil:
		first.ev = eng.AtKey(first.key, first.onComplete)
	default:
		eng.Rekey(ev, first.key, first.onComplete)
		first.ev = ev
	}
}

// sortIndices sorts distinct flow positions ascending without
// allocating: insertion sort for a small component, otherwise a bitmap
// over fb.flows read back in word order, which is linear in the
// component plus len(fb.flows)/64.
func (fb *Fabric) sortIndices(idx []int32) {
	if len(idx) <= 24 {
		for i := 1; i < len(idx); i++ {
			x := idx[i]
			j := i - 1
			for j >= 0 && idx[j] > x {
				idx[j+1] = idx[j]
				j--
			}
			idx[j+1] = x
		}
		return
	}
	words := (len(fb.flows) + 63) / 64
	ws := fb.ws
	if cap(ws.marks) < words {
		ws.marks = make([]uint64, words)
	}
	marks := ws.marks[:words]
	for _, i := range idx {
		marks[i>>6] |= 1 << (uint(i) & 63)
	}
	n := 0
	for w, m := range marks {
		for m != 0 {
			idx[n] = int32(w<<6 + bits.TrailingZeros64(m))
			n++
			m &= m - 1
		}
		marks[w] = 0
	}
}

// fill sets the max-min fair rates of a component (flows and links by
// position; every flow on one of the links must be in flows) by
// progressive filling: all unfrozen rates rise together by the largest
// uniform increment that no link share or rate cap forbids, and flows
// freeze when they reach their cap or sit on an exhausted link.
//
// Every unfrozen flow starts at 0 and gains the same increment each
// round, so all of them hold the same rate: one running level stands
// for them, and a flow takes the level's value when it freezes. The
// increments and the per-round freeze sets are those of adding each
// increment to every unfrozen flow, so the rates are bit-identical to
// that loop (TestFillMatchesUniformIncrement pins it), and independent
// of the order of links and flows: min and integer counts commute.
func (fb *Fabric) fill(flows, links []int32) {
	ws := fb.ws
	for _, li := range links {
		l := fb.links[li]
		l.remaining = l.Capacity
		l.count = 0
	}
	// capped holds the unfrozen capped flows and minCap their least
	// cap. Rounding is monotonic, so the least room cap-level over the
	// worklist is exactly minCap-level. The cap-freeze pass, the last
	// step of a round, recomputes minCap, so no later freeze can make
	// it stale before the next round reads it.
	capped := ws.capped[:0]
	minCap := math.Inf(1)
	for _, fi := range flows {
		f := fb.flows[fi]
		f.frozen = false
		if f.rateCap > 0 {
			capped = append(capped, fi)
			if f.rateCap < minCap {
				minCap = f.rateCap
			}
		}
		for _, l := range f.links {
			l.count++
		}
	}
	const relEps = 1e-12
	level := 0.0
	unfrozen := len(flows)
	// live holds the links that may still carry unfrozen flows; the
	// share scan drops those that no longer do. A link without unfrozen
	// flows keeps its remaining capacity (x - 0 == x) and, if exhausted,
	// was exhausted in an earlier round whose freeze emptied it.
	live := append(ws.live[:0], links...)
	for unfrozen > 0 {
		delta := math.Inf(1)
		for i := 0; i < len(live); {
			l := fb.links[live[i]]
			if l.count == 0 {
				last := len(live) - 1
				live[i] = live[last]
				live = live[:last]
				continue
			}
			if share := l.remaining / float64(l.count); share < delta {
				delta = share
			}
			i++
		}
		if room := minCap - level; room < delta {
			delta = room
		}
		if math.IsInf(delta, 1) {
			// No link and no cap constrains the remaining flows; this
			// cannot happen given the Start precondition, but guard
			// against an all-caps-reached stall.
			break
		}
		if delta < 0 {
			delta = 0
		}
		level += delta
		exhausted := ws.exhausted[:0]
		for _, li := range live {
			l := fb.links[li]
			l.remaining -= delta * float64(l.count)
			if l.remaining <= relEps*l.Capacity {
				exhausted = append(exhausted, li)
			}
		}
		if cap(exhausted) > cap(ws.exhausted) {
			ws.exhausted = exhausted
		}
		// Freeze flows that hit their cap or sit on an exhausted link.
		// Every test reads the level and link state fixed above, so the
		// freeze set does not depend on the order of the sweeps.
		for _, li := range exhausted {
			for _, f := range fb.links[li].flows {
				if !f.frozen {
					freezeAt(f, level)
					unfrozen--
				}
			}
		}
		minCap = math.Inf(1)
		for i := 0; i < len(capped); {
			f := fb.flows[capped[i]]
			if !f.frozen && level < f.rateCap-relEps*f.rateCap {
				if f.rateCap < minCap {
					minCap = f.rateCap
				}
				i++
				continue
			}
			if !f.frozen {
				freezeAt(f, level)
				unfrozen--
			}
			last := len(capped) - 1
			capped[i] = capped[last]
			capped = capped[:last]
		}
		if delta == 0 {
			// The level can no longer rise (a share rounded to zero):
			// the flows still unfrozen keep it.
			break
		}
	}
	if cap(capped) > cap(ws.capped) {
		ws.capped = capped
	}
	if cap(live) > cap(ws.live) {
		ws.live = live
	}
	if unfrozen > 0 {
		for _, fi := range flows {
			if f := fb.flows[fi]; !f.frozen {
				f.rate = level
			}
		}
	}
}

// freezeAt fixes f's rate at level and takes it off its links' counts.
func freezeAt(f *Flow, level float64) {
	f.frozen = true
	f.rate = level
	for _, l := range f.links {
		l.count--
	}
}
