package yarn

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// assignScan is the reference sweep: assign as it was before the
// preferred-node bitset, visiting every node round-robin from the
// cursor, with the delay-scheduling times found by linear scans over
// every pending request. TestAssignMatchesScan runs it in lockstep
// against assign.
func (rm *ResourceManager) assignScan() {
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
	oldest := rm.oldestConstrainedEnqueueScan()
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
				node := rm.c.Nodes[(rm.assignCur+i)%n]
				nid := node.ID
				if node.Down() || (rm.blacklisted[nid] && !ignoreBlacklist) {
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
	if !placedAny && rm.NodeFilter != nil && scanHasPending(rm) {
		// Nothing placed on acceptable nodes: requests that have waited
		// past the fallback delay may take a hot node rather than
		// stall the job.
		pass(false, rm.HotSpotFallbackDelay)
	}
	rm.scheduleRelaxRetry(rm.relaxExpiryScan())
}

func scanHasPending(rm *ResourceManager) bool {
	for _, app := range rm.apps {
		if len(app.pending) > 0 {
			return true
		}
	}
	return false
}

// oldestConstrainedEnqueueScan is the reference for
// oldestConstrainedEnqueue: the minimum over every pending request with
// node preferences, with no use of the pending lists' order.
func (rm *ResourceManager) oldestConstrainedEnqueueScan() float64 {
	oldest := -1.0
	for _, app := range rm.apps {
		for _, req := range app.pending {
			if len(req.PreferredNodes) > 0 && (oldest < 0 || req.enqueued < oldest) {
				oldest = req.enqueued
			}
		}
	}
	return oldest
}

// relaxExpiryScan is the reference for relaxExpiry: every pending
// request's every threshold, with no use of the pending lists' order.
func (rm *ResourceManager) relaxExpiryScan() float64 {
	now := rm.eng.Now()
	earliest := -1.0
	for _, app := range rm.apps {
		for _, req := range app.pending {
			if len(req.PreferredNodes) > 0 {
				if e := req.enqueued + rm.RackDelay; e > now && (earliest < 0 || e < earliest) {
					earliest = e
				}
				if e := req.enqueued + rm.OffRackDelay; e > now && (earliest < 0 || e < earliest) {
					earliest = e
				}
			}
			if rm.NodeFilter != nil {
				if e := req.enqueued + rm.HotSpotFallbackDelay; e > now && (earliest < 0 || e < earliest) {
					earliest = e
				}
			}
		}
	}
	return earliest
}

// pendingOrderError describes the first breach of the pending-list
// invariant the order-based scans rely on — enqueued non-decreasing
// along each app's list, and every request's index equal to its
// position — or returns "" when it holds.
func pendingOrderError(rm *ResourceManager) string {
	for _, app := range rm.apps {
		for i, req := range app.pending {
			if req.index != i {
				return fmt.Sprintf("app %d: request seq %d at position %d has index %d", app.ID, req.seq, i, req.index)
			}
			if i > 0 && req.enqueued < app.pending[i-1].enqueued {
				return fmt.Sprintf("app %d: request seq %d enqueued at %g after one enqueued at %g",
					app.ID, req.seq, req.enqueued, app.pending[i-1].enqueued)
			}
		}
	}
	return ""
}

// sweepStep is one observable step of a twin: a scheduler Pick (the
// node offered and the app index returned), a NodeFilter call, a
// launch (the node and the granted request's seq), the end of an
// assign (the cursor, the pending count and the latest relax-retry
// wakeup armed), or a relax-retry wakeup firing (its time).
type sweepStep struct {
	kind      string // pick, filter, launch, assign or wakeup
	node, val int
	at        float64
}

// sweepTwin is one side of the lockstep: its own engine, cluster and
// RM, and the log of steps it took. The indexed twin compares every
// step against the reference twin's log as it is recorded.
type sweepTwin struct {
	t    *testing.T
	seed int64
	eng  *sim.Engine
	c    *cluster.Cluster
	rm   *ResourceManager
	apps []*App
	reqs []*Request // every request made, pending or not
	live []*Container
	hot  []bool
	log  []sweepStep
	ref  *sweepTwin // nil on the reference twin
}

func (tw *sweepTwin) record(s sweepStep) {
	tw.log = append(tw.log, s)
	if tw.ref == nil {
		return
	}
	i := len(tw.log) - 1
	if i >= len(tw.ref.log) || tw.ref.log[i] != s {
		var want any = "nothing"
		if i < len(tw.ref.log) {
			want = tw.ref.log[i]
		}
		tw.t.Fatalf("seed %d, step %d at t=%g: indexed sweep did %+v, linear scan did %+v",
			tw.seed, i, tw.eng.Now(), s, want)
	}
}

// recordingScheduler logs every Pick so the twins can be compared on
// the exact nodes the scheduler is offered, in order.
type recordingScheduler struct {
	inner Scheduler
	tw    *sweepTwin
}

func (s recordingScheduler) Pick(apps []*App, node *cluster.Node) int {
	idx := s.inner.Pick(apps, node)
	s.tw.record(sweepStep{kind: "pick", node: node.ID, val: idx})
	return idx
}

// sweepParams is one randomized scenario, shared by both twins.
type sweepParams struct {
	racks          []int
	fair           bool
	schedDelay     float64
	rackDelay      float64
	offRackDelay   float64
	blacklistAfter int
	filter         bool
	fallbackDelay  float64
}

func newSweepTwin(t *testing.T, seed int64, p sweepParams, ref *sweepTwin) *sweepTwin {
	eng := sim.NewEngine()
	cfg := cluster.PaperConfig()
	cfg.RackSizes = p.racks
	c := cluster.New(eng, cfg)
	tw := &sweepTwin{t: t, seed: seed, eng: eng, c: c, ref: ref, hot: make([]bool, len(c.Nodes))}
	var inner Scheduler = FIFOScheduler{}
	if p.fair {
		inner = FairScheduler{}
	}
	rm := NewResourceManager(eng, c, recordingScheduler{inner: inner, tw: tw})
	rm.SchedulingDelay = p.schedDelay
	rm.RackDelay = p.rackDelay
	rm.OffRackDelay = p.offRackDelay
	rm.BlacklistThreshold = p.blacklistAfter
	rm.HotSpotFallbackDelay = p.fallbackDelay
	if p.filter {
		rm.NodeFilter = func(n *cluster.Node) bool {
			tw.record(sweepStep{kind: "filter", node: n.ID})
			return !tw.hot[n.ID]
		}
	}
	assign := rm.assign
	if ref == nil {
		assign = rm.assignScan
	}
	rm.kickFn = func() {
		rm.assigning = false
		assign()
		tw.record(sweepStep{kind: "assign", node: rm.assignCur, val: rm.totalPending, at: rm.retryAt})
	}
	retry := rm.retryFn
	rm.retryFn = func() {
		tw.record(sweepStep{kind: "wakeup", at: eng.Now()})
		retry()
	}
	tw.rm = rm
	for k := 0; k < 3; k++ {
		tw.apps = append(tw.apps, rm.Submit("app"))
	}
	return tw
}

// request enqueues one request preferring the given node indices.
func (tw *sweepTwin) request(app int, shape Resource, prefs []int) {
	req := &Request{Resource: shape}
	for _, p := range prefs {
		req.PreferredNodes = append(req.PreferredNodes, tw.c.Nodes[p])
	}
	req.OnAllocate = func(cont *Container) {
		tw.record(sweepStep{kind: "launch", node: cont.Node.ID, val: req.seq})
		tw.live = append(tw.live, cont)
	}
	tw.reqs = append(tw.reqs, req)
	tw.apps[app].Request(req)
}

// cancelNotPending tries to cancel the k-th request ever made through
// an app that does not hold it pending: its own app once it was placed
// or canceled (its index is stale), and otherwise the next app over.
// The RM must refuse and change nothing. It reports whether the app
// was another app.
func (tw *sweepTwin) cancelNotPending(k int) (foreign bool) {
	req := tw.reqs[k]
	app := req.app
	if i := req.index; i < len(app.pending) && app.pending[i] == req {
		app, foreign = tw.apps[(app.ID+1)%len(tw.apps)], true
	}
	pending := tw.rm.totalPending
	if app.CancelRequest(req) {
		tw.t.Fatalf("seed %d: app %d canceled request seq %d it does not hold pending (its app %d, index %d)",
			tw.seed, app.ID, req.seq, req.app.ID, req.index)
	}
	if tw.rm.totalPending != pending {
		tw.t.Fatalf("seed %d: refused cancel changed the pending count %d -> %d", tw.seed, pending, tw.rm.totalPending)
	}
	return foreign
}

// checkPendingOrder fails the test when either twin breaks the
// pending-list invariant.
func checkPendingOrder(t *testing.T, seed int64, op int, twins ...*sweepTwin) {
	t.Helper()
	for _, tw := range twins {
		if msg := pendingOrderError(tw.rm); msg != "" {
			t.Fatalf("seed %d, op %d at t=%g: %s", seed, op, tw.eng.Now(), msg)
		}
	}
}

// release frees the k-th live container (skipping any a node loss
// already reclaimed).
func (tw *sweepTwin) release(k int) {
	cont := tw.live[k]
	tw.live = append(tw.live[:k], tw.live[k+1:]...)
	if !cont.released {
		tw.rm.Release(cont)
	}
}

// sweepCoverage counts the situations the lockstep must have exercised
// for its verdict to mean anything.
type sweepCoverage struct {
	preferredOnly, rackEligible, offRackEligible int
	ignoreBlacklist, downWithPending, fallback   int
	staleCancel, foreignCancel, sameInstant      int // sameInstant: adjacent pending requests enqueued together
}

// observe classifies the state an imminent assign will see.
func (cov *sweepCoverage) observe(rm *ResourceManager) {
	if rm.totalPending == 0 {
		return
	}
	now := rm.eng.Now()
	oldest := rm.oldestConstrainedEnqueue()
	switch {
	case oldest < 0:
	case now-oldest >= rm.OffRackDelay:
		cov.offRackEligible++
	case now-oldest >= rm.RackDelay:
		cov.rackEligible++
	case rm.unconstrained == 0:
		cov.preferredOnly++
	}
	if rm.blackCount > 0 && rm.blackCount*3 >= len(rm.c.Nodes) {
		cov.ignoreBlacklist++
	}
	for _, n := range rm.c.Nodes {
		if n.Down() {
			cov.downWithPending++
			break
		}
	}
	if rm.NodeFilter != nil && oldest >= 0 && now-oldest >= rm.HotSpotFallbackDelay {
		cov.fallback++
	}
	for _, app := range rm.apps {
		for i := 1; i < len(app.pending); i++ {
			if app.pending[i].enqueued == app.pending[i-1].enqueued {
				cov.sameInstant++
			}
		}
	}
}

// TestAssignMatchesScan drives the indexed sweep and the reference
// linear scan in lockstep on twin clusters through randomized churn:
// requests preferring 0–3 nodes, some enqueued at the same instant,
// releases and cancellations (also refused ones, of a request no
// longer pending or pending on another app), delay-scheduling expiry,
// node crashes and restores, blacklisting up to and past the one-third
// ignore threshold, and a NodeFilter whose hot set forces the fallback
// pass. The reference also finds the oldest constrained request and
// the next relax-retry time by scanning every pending request. Every
// Pick, filter call, launch, post-assign cursor and armed wakeup, and
// every wakeup firing, must match step for step, and after every op
// each pending list must be in enqueue order with each request's index
// its position. Cluster sizes cross 64-node bitset words, and the
// cursor sweeps past the end of the node list, so a scan that skipped
// the wrap-around would diverge.
func TestAssignMatchesScan(t *testing.T) {
	var cov sweepCoverage
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var p sweepParams
		for r := 1 + rng.Intn(3); r > 0; r-- {
			p.racks = append(p.racks, 1+rng.Intn(60))
		}
		p.fair = rng.Intn(2) == 0
		p.schedDelay = []float64{0, 0.5}[rng.Intn(2)]
		p.rackDelay = 1 + rng.Float64()*4
		p.offRackDelay = p.rackDelay + rng.Float64()*6
		p.blacklistAfter = 1 + rng.Intn(2)
		p.filter = rng.Intn(3) > 0
		p.fallbackDelay = 1 + rng.Float64()*8
		ref := newSweepTwin(t, seed, p, nil)
		idx := newSweepTwin(t, seed, p, ref)
		n := len(ref.c.Nodes)
		shapes := []Resource{{MemMB: 512, VCores: 1}, {MemMB: 1536, VCores: 4}, {MemMB: 4096, VCores: 8}}
		now := 0.0
		for op := 0; op < 300; op++ {
			if rng.Intn(4) > 0 {
				now += rng.Float64() * 1.5
			}
			ref.eng.RunUntil(now)
			idx.eng.RunUntil(now)
			checkPendingOrder(t, seed, op, ref, idx)
			cov.observe(ref.rm)
			switch k := rng.Intn(12); {
			case k < 6:
				app, shape := rng.Intn(len(ref.apps)), shapes[rng.Intn(len(shapes))]
				var prefs []int
				if rng.Intn(6) > 0 {
					prefs = rng.Perm(n)[:min(n, 1+rng.Intn(3))]
				}
				ref.request(app, shape, prefs)
				idx.request(app, shape, prefs)
			case k < 8:
				if len(ref.live) > 0 {
					i := rng.Intn(len(ref.live))
					ref.release(i)
					idx.release(i)
				}
			case k == 8:
				app := rng.Intn(len(ref.apps))
				if pend := ref.apps[app].pending; len(pend) > 0 {
					i := rng.Intn(len(pend))
					if !ref.apps[app].CancelRequest(pend[i]) || !idx.apps[app].CancelRequest(idx.apps[app].pending[i]) {
						t.Fatalf("seed %d: cancel of pending request %d of app %d refused", seed, i, app)
					}
				}
				if len(ref.reqs) > 0 {
					r := rng.Intn(len(ref.reqs))
					ref.cancelNotPending(r)
					if idx.cancelNotPending(r) {
						cov.foreignCancel++
					} else {
						cov.staleCancel++
					}
				}
			case k == 9:
				i := rng.Intn(n)
				for _, tw := range []*sweepTwin{ref, idx} {
					if tw.c.Nodes[i].Down() {
						tw.c.RestoreNode(tw.c.Nodes[i])
					} else {
						tw.c.KillNode(tw.c.Nodes[i])
					}
				}
			case k == 10:
				i := rng.Intn(n)
				ref.rm.ReportTaskFailure(ref.c.Nodes[i])
				idx.rm.ReportTaskFailure(idx.c.Nodes[i])
			default:
				i := rng.Intn(n)
				ref.hot[i] = !ref.hot[i]
				idx.hot[i] = !idx.hot[i]
			}
			checkPendingOrder(t, seed, op, ref, idx)
		}
		ref.eng.RunUntil(now + 100)
		idx.eng.RunUntil(now + 100)
		if len(idx.log) != len(ref.log) {
			t.Fatalf("seed %d: indexed sweep logged %d steps, linear scan %d", seed, len(idx.log), len(ref.log))
		}
	}
	t.Logf("coverage: %+v", cov)
	if cov.preferredOnly == 0 || cov.rackEligible == 0 || cov.offRackEligible == 0 ||
		cov.ignoreBlacklist == 0 || cov.downWithPending == 0 || cov.fallback == 0 ||
		cov.staleCancel == 0 || cov.foreignCancel == 0 || cov.sameInstant == 0 {
		t.Fatalf("lockstep missed a situation it must cover: %+v", cov)
	}
}
