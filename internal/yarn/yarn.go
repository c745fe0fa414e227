// Package yarn models the YARN resource management layer: a resource
// manager tracking per-node capacity, applications submitting
// container requests, and pluggable scheduling (FIFO and fair share).
//
// Following MRONLINE's system-level extension (paper §4), container
// requests carry their own resource shape, so every task can run in a
// different-sized container; the stock YARN restriction of one fixed
// size per task type does not exist here.
package yarn

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Resource is a container shape: memory plus virtual cores.
type Resource struct {
	MemMB  float64
	VCores int
}

func (r Resource) String() string {
	return fmt.Sprintf("<%gMB,%dvc>", r.MemMB, r.VCores)
}

// Container is an allocated slice of one node. Containers come from
// a per-RM free list: one goes back when it has been released and its
// launch event has fired, so its owner must not touch it after
// Release.
type Container struct {
	ID       int
	Node     *cluster.Node
	Resource Resource
	App      *App
	// OnNodeLost is copied from the granting request; see Request.
	OnNodeLost func(*Container)
	// onAllocate is copied from the granting request too: once the
	// request leaves the pending list the caller may reuse the object
	// (the mapreduce AM embeds it in the task and re-populates it per
	// attempt), so the deferred launch must not read through it.
	onAllocate func(*Container)
	// launchCB runs the launch after the scheduling delay. It is bound
	// once, when the object is made; the container is not recycled
	// while launching, so the event cannot reach a later placement.
	launchCB  func()
	launching bool // the launch event is queued
	released  bool
}

// CoreCap returns the physical-core allowance of the container
// (vcores × the node's core ratio), the cgroup-style CPU cap used by
// compute flows.
func (c *Container) CoreCap() float64 {
	return float64(c.Resource.VCores) * c.Node.CoreRatio()
}

// Request asks for one container of a given shape. PreferredNodes
// expresses data locality (the input split's replica holders); the
// scheduler relaxes node-local → rack-local → off-rack.
type Request struct {
	Resource       Resource
	PreferredNodes []*cluster.Node
	// OnAllocate runs when a container is granted. It must eventually
	// lead to Release. It never runs after the app has finished: a
	// container granted inside the scheduling delay to an app that
	// finishes before the delay ends is released by the RM instead.
	OnAllocate func(*Container)
	// OnNodeLost, if set, is invoked when the container's node is
	// declared lost: the work is gone; the RM releases the container.
	// Like OnAllocate, it never runs after the app has finished.
	OnNodeLost func(*Container)

	app      *App
	seq      int
	index    int // position in the app's pending list
	enqueued float64
}

// shapeCount tracks how many pending requests share one resource shape.
// Distinct shapes stay few (one per task type per configuration wave),
// so a linear scan beats hashing on the placement hot path.
type shapeCount struct {
	r Resource
	n int
}

// addShape records one more pending request of shape r.
func addShape(shapes []shapeCount, r Resource) []shapeCount {
	for i := range shapes {
		if shapes[i].r == r {
			shapes[i].n++
			return shapes
		}
	}
	return append(shapes, shapeCount{r: r, n: 1})
}

// removeShape drops one pending request of shape r (swap-removing the
// entry when its count reaches zero; shape-set queries are
// order-independent).
func removeShape(shapes []shapeCount, r Resource) []shapeCount {
	for i := range shapes {
		if shapes[i].r == r {
			shapes[i].n--
			if shapes[i].n == 0 {
				last := len(shapes) - 1
				shapes[i] = shapes[last]
				shapes = shapes[:last]
			}
			return shapes
		}
	}
	panic(fmt.Sprintf("yarn: removing untracked pending shape %v", r))
}

// App is an application registered with the resource manager.
type App struct {
	ID   int
	Name string

	// OnNodeLost, if set, is invoked after a lost node's containers
	// have been reclaimed, so the application master can handle
	// node-scoped state it kept there (completed map outputs).
	OnNodeLost func(*cluster.Node)

	rm *ResourceManager
	// live holds the app's unreleased containers in placement (ID)
	// order.
	live []*Container
	// pending is in enqueue order: Request appends at the engine's
	// current time, which never decreases, and CancelRequest removes
	// by an order-preserving shift, so enqueued is non-decreasing along
	// the slice and each request's index is its position. The delay-
	// scheduling scans (oldestConstrainedEnqueue, relaxExpiry) rely on
	// that order.
	pending []*Request
	// pendingShapes summarizes pending by distinct resource shape, so
	// fitting checks touch shapes instead of every request.
	pendingShapes []shapeCount
	usedMemMB     float64
	running       int
	finished      bool
}

// Scheduler picks which application gets the next free capacity.
type Scheduler interface {
	// Pick returns the index into apps of the application to serve
	// next on node, or -1 if none should be served. Only apps with at
	// least one pending request that fits the node are candidates.
	Pick(apps []*App, node *cluster.Node) int
}

// ResourceManager owns cluster capacity and runs the allocation loop.
type ResourceManager struct {
	eng   *sim.Engine
	c     *cluster.Cluster
	sched Scheduler

	apps       []*App
	nextAppID  int
	nextContID int
	nextReqSeq int
	assignCur  int // round-robin node cursor
	assigning  bool
	kickFn     func() // cached kick callback (one closure per RM, not per kick)
	retryFn    func() // cached relax-retry callback, likewise
	// freeConts holds released containers whose launch has fired, for
	// reuse by later placements; spare holds finished apps' emptied
	// slices, so a new app starts with their capacity.
	freeConts []*Container
	spare     []appSlices
	// The container ledger: per-node booked memory and vcores, keyed by
	// the dense Node.ID. The RM is its only writer (place books, Release
	// frees). nodeCapMem and nodeVCores copy what each node registered
	// at construction, which never changes, so fits() is array loads
	// alone.
	nodeCapMem  []float64
	nodeUsedMem []float64
	nodeUsedVC  []int
	nodeVCores  []int
	// pendingShapes aggregates all apps' pending shapes; totalPending
	// counts pending requests so assign can skip empty passes.
	pendingShapes []shapeCount
	totalPending  int
	// Placement-possibility index for assign's node skip: prefNode[id]
	// counts pending requests that prefer node id, prefRack[r] counts
	// pending requests with at least one preference in rack r (one per
	// preferred node, so decrements mirror increments without dedup),
	// and unconstrained counts pending requests with no preference.
	// While every constrained request is still inside its delay-
	// scheduling window, a node with no preference pointing at it (or
	// at its rack, once rack-eligible) cannot receive a placement, and
	// the sweep skips it without consulting the scheduler. prefBits has
	// bit id set exactly where prefNode[id] > 0, so while only preferred
	// nodes can place, the sweep jumps between set bits instead of
	// visiting every node.
	prefNode      []int
	prefBits      []uint64
	prefRack      []int
	unconstrained int
	// retryAt is the expiry of the latest scheduled relax-retry wakeup
	// (-1 when none); duplicate wakeups at the same instant coalesce.
	retryAt        float64
	retryScheduled int
	// SchedulingDelay adds latency between a container becoming
	// available and the task launch, modelling heartbeat granularity.
	SchedulingDelay float64
	// RackDelay and OffRackDelay implement delay scheduling: a request
	// with node preferences accepts a rack-local (resp. off-rack)
	// placement only after waiting this long.
	RackDelay    float64
	OffRackDelay float64
	// NodeFilter, when set, vetoes placements on nodes it rejects
	// (MRONLINE's hot-spot avoidance: the tuner installs a filter that
	// skips nodes with saturated disk or CPU). A request that has
	// waited longer than HotSpotFallbackDelay may place on a filtered
	// node anyway, so a fully hot cluster cannot starve.
	NodeFilter           func(*cluster.Node) bool
	HotSpotFallbackDelay float64

	// Node loss and blacklisting (see nodestate.go). All slices are
	// keyed by the dense Node.ID like the ledger above; liveness itself
	// is the node's (Node.Down).
	declaredLost []bool   // containers already reclaimed this down-epoch
	downEpoch    []uint64 // guards stale expiry timers across transitions
	blacklisted  []bool
	nodeFailures []int
	blackCount   int // number of currently blacklisted nodes
	// NodeExpirySecs is how long a node must stay down before the RM
	// declares it lost and reclaims its containers (the NM liveness
	// monitor's expiry interval, scaled to simulation time).
	NodeExpirySecs float64
	// BlacklistThreshold is how many task failures a node may host
	// before the scheduler stops placing on it
	// (mapreduce.job.maxtaskfailures.per.tracker). Zero disables
	// blacklisting.
	BlacklistThreshold int
}

// NewResourceManager returns an RM over the whole cluster with the
// given scheduling policy.
func NewResourceManager(eng *sim.Engine, c *cluster.Cluster, sched Scheduler) *ResourceManager {
	rm := &ResourceManager{
		eng: eng, c: c, sched: sched,
		SchedulingDelay: 0.5,
		RackDelay:       2,
		OffRackDelay:    5,

		HotSpotFallbackDelay: 15,
		retryAt:              -1,

		NodeExpirySecs:     30,
		BlacklistThreshold: 3,
	}
	n := len(c.Nodes)
	rm.nodeCapMem = make([]float64, n)
	rm.nodeUsedMem = make([]float64, n)
	rm.nodeUsedVC = make([]int, n)
	rm.nodeVCores = make([]int, n)
	for i, node := range c.Nodes {
		rm.nodeCapMem[i] = node.ContainerMemMB
		rm.nodeVCores[i] = node.VCores
	}
	rm.declaredLost = make([]bool, n)
	rm.downEpoch = make([]uint64, n)
	rm.blacklisted = make([]bool, n)
	rm.nodeFailures = make([]int, n)
	rm.prefNode = make([]int, n)
	rm.prefBits = make([]uint64, (n+63)/64)
	rm.prefRack = make([]int, len(c.Racks))
	rm.kickFn = func() {
		rm.assigning = false
		rm.assign()
	}
	rm.retryFn = func() {
		// The wakeup fires exactly at the instant it was armed for, so
		// it is the latest one armed when that instant is retryAt.
		if rm.retryAt == rm.eng.Now() {
			rm.retryAt = -1
		}
		rm.kick()
	}
	c.SubscribeNodeState(rm.onNodeState)
	return rm
}

// Cluster returns the managed cluster.
func (rm *ResourceManager) Cluster() *cluster.Cluster { return rm.c }

// FaultCounters returns the cluster-wide counter sheet the RM and the
// jobs it runs write.
func (rm *ResourceManager) FaultCounters() *metrics.FaultCounters { return rm.c.Faults }

// Engine returns the simulation engine.
func (rm *ResourceManager) Engine() *sim.Engine { return rm.eng }

// appSlices is a finished app's emptied per-app slices, kept for the
// next app's capacity.
type appSlices struct {
	live    []*Container
	pending []*Request
	shapes  []shapeCount
}

// Submit registers a new application.
func (rm *ResourceManager) Submit(name string) *App {
	app := &App{ID: rm.nextAppID, Name: name, rm: rm}
	if n := len(rm.spare); n > 0 {
		sp := rm.spare[n-1]
		rm.spare = rm.spare[:n-1]
		app.live, app.pending, app.pendingShapes = sp.live, sp.pending, sp.shapes
	}
	rm.nextAppID++
	rm.apps = append(rm.apps, app)
	return app
}

// Finish deregisters the app. Outstanding requests are dropped, and so
// is the RM's list of the app's live containers: a container released
// after Finish (one still inside its scheduling delay, or a failed
// job's attempt still running) only gives back its resources.
func (a *App) Finish() {
	if a.finished {
		return
	}
	a.finished = true
	for _, req := range a.pending {
		a.rm.pendingShapes = removeShape(a.rm.pendingShapes, req.Resource)
		a.rm.totalPending--
		a.rm.indexRequest(req, -1)
	}
	clear(a.live)
	clear(a.pending)
	a.rm.spare = append(a.rm.spare, appSlices{live: a.live[:0], pending: a.pending[:0], shapes: a.pendingShapes[:0]})
	a.live, a.pending, a.pendingShapes = nil, nil, nil
	apps := a.rm.apps[:0]
	for _, app := range a.rm.apps {
		if app != a {
			apps = append(apps, app)
		}
	}
	a.rm.apps = apps
	a.rm.kick()
}

// Request enqueues a container request and triggers assignment.
func (a *App) Request(req *Request) {
	if a.finished {
		panic(fmt.Sprintf("yarn: request on finished app %s", a.Name))
	}
	if req.Resource.MemMB <= 0 || req.Resource.VCores <= 0 {
		panic(fmt.Sprintf("yarn: invalid container shape %v", req.Resource))
	}
	req.app = a
	req.seq = a.rm.nextReqSeq
	a.rm.nextReqSeq++
	req.index = len(a.pending)
	req.enqueued = a.rm.eng.Now()
	a.pending = append(a.pending, req)
	a.pendingShapes = addShape(a.pendingShapes, req.Resource)
	a.rm.pendingShapes = addShape(a.rm.pendingShapes, req.Resource)
	a.rm.totalPending++
	a.rm.indexRequest(req, 1)
	a.rm.kick()
}

// CancelRequest removes a not-yet-satisfied request. It returns false,
// changing nothing, when req is not pending on a: already placed or
// canceled, dropped by Finish, or another app's. The request is found
// through its index in O(1); the shift that keeps the rest in enqueue
// order is O(requests behind it).
func (a *App) CancelRequest(req *Request) bool {
	i := req.index
	if i < 0 || i >= len(a.pending) || a.pending[i] != req {
		return false
	}
	last := len(a.pending) - 1
	copy(a.pending[i:], a.pending[i+1:])
	a.pending[last] = nil
	a.pending = a.pending[:last]
	for j := i; j < last; j++ {
		a.pending[j].index = j
	}
	a.pendingShapes = removeShape(a.pendingShapes, req.Resource)
	a.rm.pendingShapes = removeShape(a.rm.pendingShapes, req.Resource)
	a.rm.totalPending--
	a.rm.indexRequest(req, -1)
	return true
}

// Release frees a container's resources and re-runs assignment.
func (rm *ResourceManager) Release(c *Container) {
	if c.released {
		panic(fmt.Sprintf("yarn: double release of container %d", c.ID))
	}
	c.released = true
	id := c.Node.ID
	if c.Resource.MemMB > rm.nodeUsedMem[id]+1e-6 {
		panic(fmt.Sprintf("yarn: release of %v MB on %s exceeds the %v MB booked there", c.Resource.MemMB, c.Node.Name, rm.nodeUsedMem[id]))
	}
	rm.nodeUsedMem[id] -= c.Resource.MemMB
	if rm.nodeUsedMem[id] < 0 {
		rm.nodeUsedMem[id] = 0 // a rounding-error overshoot
	}
	rm.nodeUsedVC[id] -= c.Resource.VCores
	app := c.App
	for i, lc := range app.live {
		if lc == c {
			last := len(app.live) - 1
			copy(app.live[i:], app.live[i+1:])
			app.live[last] = nil
			app.live = app.live[:last]
			break
		}
	}
	app.usedMemMB -= c.Resource.MemMB
	app.running--
	if !c.launching {
		rm.recycleContainer(c)
	}
	rm.kick()
}

// newContainer pops a recycled container or makes one, binding its
// launch callback.
func (rm *ResourceManager) newContainer() *Container {
	if n := len(rm.freeConts); n > 0 {
		c := rm.freeConts[n-1]
		rm.freeConts[n-1] = nil
		rm.freeConts = rm.freeConts[:n-1]
		return c
	}
	c := &Container{}
	c.launchCB = func() { rm.launch(c) }
	return c
}

// recycleContainer parks a released container whose launch has fired,
// dropping its app and callbacks (the node belongs to the cluster, and
// a recycled container keeps reporting it until it is placed again).
func (rm *ResourceManager) recycleContainer(c *Container) {
	c.App, c.OnNodeLost, c.onAllocate = nil, nil, nil
	rm.freeConts = append(rm.freeConts, c)
}

// kick schedules an assignment pass; multiple kicks in one instant
// coalesce.
func (rm *ResourceManager) kick() {
	if rm.assigning {
		return
	}
	rm.assigning = true
	rm.eng.After(0, rm.kickFn)
}

// indexRequest adds (delta=+1) or removes (delta=-1) one pending
// request from the placement-possibility index.
func (rm *ResourceManager) indexRequest(req *Request, delta int) {
	if len(req.PreferredNodes) == 0 {
		rm.unconstrained += delta
		return
	}
	for _, n := range req.PreferredNodes {
		id := n.ID
		rm.prefNode[id] += delta
		switch {
		case delta > 0 && rm.prefNode[id] == 1:
			rm.prefBits[id>>6] |= 1 << (id & 63)
		case delta < 0 && rm.prefNode[id] == 0:
			rm.prefBits[id>>6] &^= 1 << (id & 63)
		}
		rm.prefRack[n.Rack] += delta
	}
}

// nextPreferred returns the least sweep offset j >= i whose node,
// rm.c.Nodes[(rm.assignCur+j) mod n], has a pending request preferring
// it, or n when no such node is left before the sweep wraps back to
// the cursor.
func (rm *ResourceManager) nextPreferred(i int) int {
	n, cur := len(rm.c.Nodes), rm.assignCur
	if cur+i < n {
		if q := rm.nextPrefBit(cur+i, n); q < n {
			return q - cur
		}
		i = n - cur // continue at node 0, past the wrap
	}
	// Positions 0..cur-1 are offsets n-cur..n-1; none found gives n.
	return rm.nextPrefBit(cur+i-n, cur) + n - cur
}

// nextPrefBit returns the first node position in [from, to) whose
// prefBits bit is set, or to when there is none.
func (rm *ResourceManager) nextPrefBit(from, to int) int {
	if from >= to {
		return to
	}
	w := from >> 6
	word := rm.prefBits[w] &^ (1<<(from&63) - 1)
	for word == 0 {
		w++
		if w<<6 >= to {
			return to
		}
		word = rm.prefBits[w]
	}
	return min(w<<6+bits.TrailingZeros64(word), to)
}

// oldestConstrainedEnqueue returns the enqueue time of the oldest
// pending request that has node preferences, or -1 when none is
// pending. Pending lists are in enqueue order, so each app's first
// constrained request is its oldest: the cost is the unconstrained
// requests ahead of it, summed over apps, called once per assignment
// pass.
func (rm *ResourceManager) oldestConstrainedEnqueue() float64 {
	oldest := -1.0
	for _, app := range rm.apps {
		for _, req := range app.pending {
			if len(req.PreferredNodes) > 0 {
				if oldest < 0 || req.enqueued < oldest {
					oldest = req.enqueued
				}
				break
			}
		}
	}
	return oldest
}

// BookedMemMB returns the container memory booked on node n: what its
// placed, unreleased containers hold.
func (rm *ResourceManager) BookedMemMB(n *cluster.Node) float64 { return rm.nodeUsedMem[n.ID] }

// fits reports whether a request shape fits node's free capacity,
// with 1e-9 MB of slack for rounding. YARN accounts vcores logically;
// the cluster model enforces the CPU cap physically via flow rate caps.
func (rm *ResourceManager) fits(node *cluster.Node, r Resource) bool {
	id := node.ID
	return r.MemMB <= rm.nodeCapMem[id]-rm.BookedMemMB(node)+1e-9 &&
		rm.nodeUsedVC[id]+r.VCores <= rm.nodeVCores[id]
}

// anyPendingFits reports whether any pending request shape, across all
// apps, fits node — the cheap pre-filter that lets assign skip nodes no
// scheduler could place on.
func (rm *ResourceManager) anyPendingFits(node *cluster.Node) bool {
	for i := range rm.pendingShapes {
		if rm.fits(node, rm.pendingShapes[i].r) {
			return true
		}
	}
	return false
}

// assign walks nodes round-robin, letting the scheduler pick an app
// for each node with free capacity, until no more placements succeed.
func (rm *ResourceManager) assign() {
	n := len(rm.c.Nodes)
	if n == 0 {
		return
	}
	if rm.totalPending == 0 {
		// An empty pass places nothing but still rotates the round-robin
		// cursor once (the progress loop runs exactly once).
		rm.assignCur = (rm.assignCur + 1) % n
		return
	}
	placedAny := false
	// When a third or more of the cluster is blacklisted, ignore the
	// blacklist rather than starve (the AM node-blacklisting ignore
	// threshold, 33% in Hadoop).
	ignoreBlacklist := rm.blackCount*3 >= n
	// Delay-scheduling eligibility for the whole pass: while no
	// unconstrained request is pending and every constrained request is
	// younger than the rack (resp. off-rack) threshold, only preferred
	// nodes (resp. their racks) can receive a placement. assign runs at
	// one instant and placements only remove requests, so computing
	// this once up front errs, if at all, toward scanning a node the
	// sweep could have skipped — never toward skipping a placeable one.
	now := rm.eng.Now()
	oldest := rm.oldestConstrainedEnqueue()
	rackEligible := oldest >= 0 && now-oldest >= rm.RackDelay
	offRackEligible := oldest >= 0 && now-oldest >= rm.OffRackDelay
	pass := func(useFilter bool, minAge float64) {
		progress := true
		for progress {
			progress = false
			for i := 0; i < n; i++ {
				if rm.totalPending == 0 {
					// The last placement drained the pending set; the rest
					// of the sweep cannot place anything. Bailing here is
					// behavior-identical (anyPendingFits would reject every
					// remaining node, and the cursor rotates after the loop
					// either way) but turns the common one-request case on
					// a 10k-node cluster from O(nodes) into O(1).
					break
				}
				if rm.unconstrained == 0 && !offRackEligible && !rackEligible {
					// Only preferred nodes can place (the skip below):
					// jump straight to the next one. Every node jumped
					// over is one the body would `continue` on, so the
					// checks below see the same nodes in the same order.
					if i = rm.nextPreferred(i); i == n {
						break
					}
				}
				// The sweep position is the node ID.
				nid := rm.assignCur + i
				if nid >= n {
					nid -= n
				}
				node := rm.c.Nodes[nid]
				if rm.blacklisted[nid] && !ignoreBlacklist {
					continue
				}
				if rm.unconstrained == 0 && !offRackEligible &&
					rm.prefNode[nid] == 0 &&
					(!rackEligible || rm.prefRack[node.Rack] == 0) {
					// No request may place here: selectRequest would
					// return nil for every app the scheduler could pick,
					// and neither Pick nor selectRequest has side effects.
					continue
				}
				// Liveness is the node's own fact, so it is read only
				// now: a node the preference index skips is never loaded.
				if node.Down() {
					continue
				}
				if useFilter && rm.NodeFilter != nil && !rm.NodeFilter(node) {
					continue
				}
				if !rm.anyPendingFits(node) {
					continue // no scheduler could place here
				}
				idx := rm.sched.Pick(rm.apps, node)
				if idx < 0 {
					continue
				}
				app := rm.apps[idx]
				req := rm.selectRequest(app, node, minAge)
				if req == nil {
					continue
				}
				rm.place(app, req, node)
				progress = true
				placedAny = true
			}
			rm.assignCur = (rm.assignCur + 1) % n
		}
	}
	pass(true, 0)
	if !placedAny && rm.NodeFilter != nil && rm.totalPending > 0 {
		// Nothing placed on acceptable nodes: requests that have waited
		// past the fallback delay may take a hot node rather than
		// stall the job.
		pass(false, rm.HotSpotFallbackDelay)
	}
	rm.scheduleRelaxRetry(rm.relaxExpiry())
}

// scheduleRelaxRetry arranges another assignment pass at at, the
// next delay-scheduling expiry (relaxExpiry; nothing when it is -1);
// without it a locality-restricted request could wait for a release
// forever even though relaxation would let it place off-node. A
// wakeup already queued for exactly that instant makes a second one
// redundant — the duplicate's kick would find assigning already set —
// so it is coalesced away. Every wakeup shares the cached retryFn.
func (rm *ResourceManager) scheduleRelaxRetry(at float64) {
	if at > rm.eng.Now() && rm.retryAt != at {
		rm.retryAt = at
		rm.retryScheduled++
		rm.eng.At(at, rm.retryFn)
	}
}

// relaxExpiry returns the earliest instant after now at which a
// pending request crosses a delay-scheduling threshold — RackDelay or
// OffRackDelay for a request with node preferences, HotSpotFallbackDelay
// for any request while a NodeFilter is installed — or -1 when there is
// none. A pending list is in enqueue order and float addition is
// monotone, so for each delay d the requests with enqueued+d > now form
// a suffix, found by binary search; the minimum is the first eligible
// request in it. The cost per app is O(log pending) plus the
// unconstrained requests stepped over.
func (rm *ResourceManager) relaxExpiry() float64 {
	now := rm.eng.Now()
	earliest := -1.0
	for _, app := range rm.apps {
		p := app.pending
		for _, d := range [2]float64{rm.RackDelay, rm.OffRackDelay} {
			for i := expiringAfter(p, d, now); i < len(p); i++ {
				if len(p[i].PreferredNodes) > 0 {
					earliest = earlierExpiry(earliest, p[i].enqueued+d)
					break
				}
			}
		}
		if rm.NodeFilter != nil {
			if i := expiringAfter(p, rm.HotSpotFallbackDelay, now); i < len(p) {
				earliest = earlierExpiry(earliest, p[i].enqueued+rm.HotSpotFallbackDelay)
			}
		}
	}
	return earliest
}

// expiringAfter returns the first index of pending, a list in enqueue
// order, whose request's enqueued+d is after now (len(pending) when
// none is).
func expiringAfter(pending []*Request, d, now float64) int {
	return sort.Search(len(pending), func(i int) bool { return pending[i].enqueued+d > now })
}

// earlierExpiry folds expiry e (always after now, so positive) into
// the running minimum earliest, where -1 means none yet.
func earlierExpiry(earliest, e float64) float64 {
	if earliest < 0 || e < earliest {
		return e
	}
	return earliest
}

// selectRequest picks the app's best pending request for the node:
// node-local first; rack-local and off-rack placements are accepted
// only after the request has waited past the delay-scheduling
// thresholds.
func (rm *ResourceManager) selectRequest(app *App, node *cluster.Node, minAge float64) *Request {
	now := rm.eng.Now()
	var rackLocal, relaxed, unconstrained *Request
	for _, req := range app.pending {
		if !rm.fits(node, req.Resource) {
			continue
		}
		if minAge > 0 && now-req.enqueued < minAge {
			continue
		}
		if len(req.PreferredNodes) == 0 {
			if unconstrained == nil {
				unconstrained = req
			}
			continue
		}
		waited := now - req.enqueued
		sameRack := false
		for _, pref := range req.PreferredNodes {
			if pref == node {
				return req
			}
			if pref.Rack == node.Rack {
				sameRack = true
			}
		}
		if sameRack && waited >= rm.RackDelay && rackLocal == nil {
			rackLocal = req
		}
		if waited >= rm.OffRackDelay && relaxed == nil {
			relaxed = req
		}
	}
	if rackLocal != nil {
		return rackLocal
	}
	if relaxed != nil {
		return relaxed
	}
	return unconstrained
}

func (rm *ResourceManager) place(app *App, req *Request, node *cluster.Node) {
	nid := node.ID
	rm.nodeUsedMem[nid] += req.Resource.MemMB
	rm.nodeUsedVC[nid] += req.Resource.VCores
	if !app.CancelRequest(req) {
		panic("yarn: placed request not pending")
	}
	cont := rm.newContainer()
	cont.ID, cont.Node, cont.Resource, cont.App = rm.nextContID, node, req.Resource, app
	cont.OnNodeLost, cont.onAllocate = req.OnNodeLost, req.OnAllocate
	cont.released, cont.launching = false, true
	rm.nextContID++
	app.live = append(app.live, cont)
	app.usedMemMB += req.Resource.MemMB
	app.running++
	rm.eng.After(rm.SchedulingDelay, cont.launchCB)
}

// launch runs when the scheduling delay of a placement ends.
func (rm *ResourceManager) launch(c *Container) {
	c.launching = false
	if c.released {
		// Reclaimed by a node-loss declaration in the window; this was
		// the last event that could reach the container.
		rm.recycleContainer(c)
		return
	}
	if c.Node.Down() {
		// The node died inside the scheduling-delay window; the
		// launch never happens. Reclaim the container right away
		// (its loss notification would otherwise wait for expiry).
		rm.reclaimLost(c)
		return
	}
	if c.App.finished {
		// The app finished inside the window: its owner killed the
		// attempt this container was for after the request had been
		// placed (a losing speculative copy), and may since have
		// recycled the objects onAllocate would touch. Hand the
		// container straight back.
		rm.Release(c)
		return
	}
	if c.onAllocate != nil {
		c.onAllocate(c)
	}
}
