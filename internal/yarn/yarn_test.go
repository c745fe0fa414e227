package yarn

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/sim"
)

func newRM(t *testing.T, sched Scheduler) (*sim.Engine, *cluster.Cluster, *ResourceManager) {
	t.Helper()
	eng := sim.NewEngine()
	c := cluster.New(eng, cluster.PaperConfig())
	rm := NewResourceManager(eng, c, sched)
	rm.SchedulingDelay = 0 // keep arithmetic simple in tests
	return eng, c, rm
}

func TestAllocateAndRelease(t *testing.T) {
	eng, c, rm := newRM(t, FIFOScheduler{})
	app := rm.Submit("job")
	var got *Container
	app.Request(&Request{
		Resource:   Resource{MemMB: 1024, VCores: 1},
		OnAllocate: func(cont *Container) { got = cont },
	})
	eng.Run()
	if got == nil {
		t.Fatal("container never allocated")
	}
	if got.Node.Mem.Used() != 1024 {
		t.Fatalf("node memory used = %v, want 1024", got.Node.Mem.Used())
	}
	if app.Running() != 1 || app.UsedMemMB() != 1024 {
		t.Fatalf("app accounting wrong: running=%d used=%v", app.Running(), app.UsedMemMB())
	}
	rm.Release(got)
	eng.Run()
	if got.Node.Mem.Used() != 0 {
		t.Fatalf("memory not freed: %v", got.Node.Mem.Used())
	}
	if app.Running() != 0 {
		t.Fatalf("running = %d after release", app.Running())
	}
	_ = c
}

func TestDoubleReleasePanics(t *testing.T) {
	eng, _, rm := newRM(t, FIFOScheduler{})
	app := rm.Submit("job")
	var got *Container
	app.Request(&Request{Resource: Resource{MemMB: 512, VCores: 1}, OnAllocate: func(c *Container) { got = c }})
	eng.Run()
	rm.Release(got)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	rm.Release(got)
}

func TestMemoryCapacityLimitsConcurrency(t *testing.T) {
	eng, c, rm := newRM(t, FIFOScheduler{})
	app := rm.Submit("job")
	allocated := 0
	// 6 GB per node, 18 nodes: 108 containers of 1 GB fit; request 150.
	for i := 0; i < 150; i++ {
		app.Request(&Request{
			Resource:   Resource{MemMB: 1024, VCores: 1},
			OnAllocate: func(*Container) { allocated++ },
		})
	}
	eng.Run()
	want := 6 * len(c.Nodes)
	if allocated != want {
		t.Fatalf("allocated %d containers, want %d", allocated, want)
	}
	if app.Pending() != 150-want {
		t.Fatalf("pending = %d, want %d", app.Pending(), 150-want)
	}
}

func TestVcoreCapacityLimitsConcurrency(t *testing.T) {
	eng, c, rm := newRM(t, FIFOScheduler{})
	app := rm.Submit("job")
	allocated := 0
	// 28 vcores per node; 8-vcore, small-memory containers: 3 per node.
	for i := 0; i < 100; i++ {
		app.Request(&Request{
			Resource:   Resource{MemMB: 512, VCores: 8},
			OnAllocate: func(*Container) { allocated++ },
		})
	}
	eng.Run()
	want := (28 / 8) * len(c.Nodes)
	if allocated != want {
		t.Fatalf("allocated %d containers, want %d", allocated, want)
	}
}

func TestReleaseUnblocksQueued(t *testing.T) {
	eng, c, rm := newRM(t, FIFOScheduler{})
	app := rm.Submit("job")
	var conts []*Container
	total := 6*len(c.Nodes) + 10
	for i := 0; i < total; i++ {
		app.Request(&Request{
			Resource:   Resource{MemMB: 1024, VCores: 1},
			OnAllocate: func(c *Container) { conts = append(conts, c) },
		})
	}
	eng.Run()
	first := len(conts)
	for _, c := range conts {
		rm.Release(c)
	}
	eng.Run()
	if len(conts) != first+10 {
		t.Fatalf("after releases, %d allocations, want %d", len(conts), first+10)
	}
}

func TestVariableSizedContainers(t *testing.T) {
	eng, _, rm := newRM(t, FIFOScheduler{})
	app := rm.Submit("job")
	shapes := []Resource{
		{MemMB: 512, VCores: 1},
		{MemMB: 1024, VCores: 2},
		{MemMB: 2048, VCores: 4},
	}
	counts := map[Resource]int{}
	for _, s := range shapes {
		s := s
		app.Request(&Request{Resource: s, OnAllocate: func(c *Container) {
			if c.Resource != s {
				t.Errorf("container shape %v, want %v", c.Resource, s)
			}
			counts[c.Resource]++
		}})
	}
	eng.Run()
	for _, s := range shapes {
		if counts[s] != 1 {
			t.Errorf("shape %v count = %d, want 1", s, counts[s])
		}
	}
}

func TestLocalityPreference(t *testing.T) {
	eng, c, rm := newRM(t, FIFOScheduler{})
	app := rm.Submit("job")
	want := c.Nodes[7]
	var got *Container
	app.Request(&Request{
		Resource:       Resource{MemMB: 1024, VCores: 1},
		PreferredNodes: []*cluster.Node{want},
		OnAllocate:     func(cont *Container) { got = cont },
	})
	eng.Run()
	if got == nil || got.Node != want {
		t.Fatalf("locality preference ignored: got %v, want %s", got.Node.Name, want.Name)
	}
}

func TestFIFOOrdering(t *testing.T) {
	eng, c, rm := newRM(t, FIFOScheduler{})
	a := rm.Submit("first")
	b := rm.Submit("second")
	capacity := 6 * len(c.Nodes)
	aGot, bGot := 0, 0
	for i := 0; i < capacity; i++ {
		a.Request(&Request{Resource: Resource{MemMB: 1024, VCores: 1}, OnAllocate: func(*Container) { aGot++ }})
	}
	for i := 0; i < 20; i++ {
		b.Request(&Request{Resource: Resource{MemMB: 1024, VCores: 1}, OnAllocate: func(*Container) { bGot++ }})
	}
	eng.Run()
	if aGot != capacity {
		t.Fatalf("FIFO first app got %d, want %d", aGot, capacity)
	}
	if bGot != 0 {
		t.Fatalf("FIFO second app got %d before first finished", bGot)
	}
}

func TestFairSharing(t *testing.T) {
	eng, c, rm := newRM(t, FairScheduler{})
	a := rm.Submit("a")
	b := rm.Submit("b")
	capacity := 6 * len(c.Nodes)
	aGot, bGot := 0, 0
	for i := 0; i < capacity; i++ {
		a.Request(&Request{Resource: Resource{MemMB: 1024, VCores: 1}, OnAllocate: func(*Container) { aGot++ }})
		b.Request(&Request{Resource: Resource{MemMB: 1024, VCores: 1}, OnAllocate: func(*Container) { bGot++ }})
	}
	eng.Run()
	if aGot+bGot != capacity {
		t.Fatalf("total = %d, want %d", aGot+bGot, capacity)
	}
	if aGot < capacity/2-2 || aGot > capacity/2+2 {
		t.Fatalf("fair split %d/%d not balanced", aGot, bGot)
	}
}

func TestCancelRequest(t *testing.T) {
	eng, c, rm := newRM(t, FIFOScheduler{})
	app := rm.Submit("job")
	// Saturate the cluster so a later request stays pending.
	capacity := 6 * len(c.Nodes)
	for i := 0; i < capacity; i++ {
		app.Request(&Request{Resource: Resource{MemMB: 1024, VCores: 1}, OnAllocate: func(*Container) {}})
	}
	fired := false
	req := &Request{Resource: Resource{MemMB: 1024, VCores: 1}, OnAllocate: func(*Container) { fired = true }}
	app.Request(req)
	eng.Run()
	if !app.CancelRequest(req) {
		t.Fatal("CancelRequest failed for pending request")
	}
	eng.Run()
	if fired {
		t.Fatal("canceled request was allocated")
	}
	if app.CancelRequest(req) {
		t.Fatal("second cancel succeeded")
	}
}

func TestFinishDropsPending(t *testing.T) {
	eng, c, rm := newRM(t, FIFOScheduler{})
	a := rm.Submit("a")
	b := rm.Submit("b")
	capacity := 6 * len(c.Nodes)
	var aConts []*Container
	for i := 0; i < capacity+10; i++ {
		a.Request(&Request{Resource: Resource{MemMB: 1024, VCores: 1}, OnAllocate: func(c *Container) { aConts = append(aConts, c) }})
	}
	bGot := 0
	for i := 0; i < 5; i++ {
		b.Request(&Request{Resource: Resource{MemMB: 1024, VCores: 1}, OnAllocate: func(*Container) { bGot++ }})
	}
	eng.Run()
	// Release a's containers and finish it; b should now be served.
	for _, c := range aConts {
		rm.Release(c)
	}
	a.Finish()
	eng.Run()
	if bGot != 5 {
		t.Fatalf("b got %d containers after a finished, want 5", bGot)
	}
}

func TestSchedulingDelayApplied(t *testing.T) {
	eng, _, rm := newRM(t, FIFOScheduler{})
	rm.SchedulingDelay = 2.5
	app := rm.Submit("job")
	var at float64 = -1
	app.Request(&Request{Resource: Resource{MemMB: 512, VCores: 1}, OnAllocate: func(*Container) { at = eng.Now() }})
	eng.Run()
	if at != 2.5 {
		t.Fatalf("allocation callback at %v, want 2.5", at)
	}
}

// TestFinishInsideSchedulingDelay: a container placed for an app that
// finishes before the scheduling delay ends is released by the RM; the
// app's callbacks never run. The node-loss variant still counts the
// lost container.
func TestFinishInsideSchedulingDelay(t *testing.T) {
	for _, nodeDies := range []bool{false, true} {
		eng, c, rm := newRM(t, FIFOScheduler{})
		rm.SchedulingDelay = 5
		app := rm.Submit("job")
		calls := 0
		app.Request(&Request{
			Resource:   Resource{MemMB: 1024, VCores: 1},
			OnAllocate: func(*Container) { calls++ },
			OnNodeLost: func(*Container) { calls++ },
		})
		eng.At(1, func() {
			if nodeDies {
				for _, n := range c.Nodes {
					if n.Mem.Used() > 0 {
						c.KillNode(n)
					}
				}
			}
			app.Finish()
		})
		eng.Run()
		if calls != 0 {
			t.Errorf("nodeDies=%v: %d callbacks ran for a finished app", nodeDies, calls)
		}
		for _, n := range c.Nodes {
			if n.Mem.Used() != 0 {
				t.Errorf("nodeDies=%v: %v MB still booked on %s", nodeDies, n.Mem.Used(), n.Name)
			}
		}
		if want := map[bool]int{false: 0, true: 1}[nodeDies]; c.Faults.ContainersLost != want {
			t.Errorf("nodeDies=%v: ContainersLost = %d, want %d", nodeDies, c.Faults.ContainersLost, want)
		}
	}
}

func TestResourceString(t *testing.T) {
	r := Resource{MemMB: 1024, VCores: 2}
	if r.String() != "<1024MB,2vc>" {
		t.Fatalf("Resource.String = %q", r.String())
	}
}

func TestContainerCoreCap(t *testing.T) {
	eng, c, rm := newRM(t, FIFOScheduler{})
	app := rm.Submit("job")
	var got *Container
	app.Request(&Request{Resource: Resource{MemMB: 512, VCores: 4}, OnAllocate: func(cc *Container) { got = cc }})
	eng.Run()
	want := 4 * c.Nodes[0].CoreRatio()
	if got.CoreCap() != want {
		t.Fatalf("CoreCap = %v, want %v", got.CoreCap(), want)
	}
}

func TestRMAccessors(t *testing.T) {
	eng, c, rm := newRM(t, FIFOScheduler{})
	if rm.Cluster() != c || rm.Engine() != eng {
		t.Fatal("RM accessors broken")
	}
}

func TestDelayedLocalityRelaxation(t *testing.T) {
	// Preferred node is full: the request must wait out RackDelay and
	// then place rack-locally, not immediately.
	eng, c, rm := newRM(t, FIFOScheduler{})
	rm.RackDelay = 4
	rm.OffRackDelay = 50
	app := rm.Submit("job")
	target := c.Racks[0][0]
	// Fill the target node completely.
	filled := 0
	for i := 0; i < 6; i++ {
		app.Request(&Request{
			Resource:       Resource{MemMB: 1024, VCores: 1},
			PreferredNodes: []*cluster.Node{target},
			OnAllocate:     func(*Container) { filled++ },
		})
	}
	eng.Run()
	if filled != 6 {
		t.Fatalf("prefill placed %d", filled)
	}
	var at float64 = -1
	var where *cluster.Node
	app.Request(&Request{
		Resource:       Resource{MemMB: 1024, VCores: 1},
		PreferredNodes: []*cluster.Node{target},
		OnAllocate:     func(cc *Container) { at = eng.Now(); where = cc.Node },
	})
	eng.RunUntil(100)
	if at < 0 {
		t.Fatal("request never placed")
	}
	if at < 4 {
		t.Fatalf("placed at %v, before RackDelay expired", at)
	}
	if where.Rack != target.Rack {
		t.Fatalf("placed off-rack at %v despite rack capacity", at)
	}
}

// indexConsistent reports whether the RM's pending counters agree with
// its pending lists: totalPending is the sum of the apps' pending
// lengths, and prefBits has exactly one bit per node that a pending
// request prefers.
func indexConsistent(rm *ResourceManager) bool {
	pending := 0
	for _, app := range rm.apps {
		pending += len(app.pending)
	}
	preferred, set := 0, 0
	for _, c := range rm.prefNode {
		if c > 0 {
			preferred++
		}
	}
	for _, w := range rm.prefBits {
		set += bits.OnesCount64(w)
	}
	return pending == rm.totalPending && preferred == set
}

// Property: under random request/release/cancel churn, allocated
// memory and vcores never exceed any node's capacity, the pending
// counters and the preferred-node bitset stay consistent with the
// pending lists, and accounting returns to zero when everything is
// released.
func TestYarnChurnProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eng, c, rm := newRMQuiet(FairScheduler{})
		apps := []*App{rm.Submit("a"), rm.Submit("b")}
		var live []*Container
		shapes := []Resource{{MemMB: 512, VCores: 1}, {MemMB: 1024, VCores: 2}, {MemMB: 2048, VCores: 4}}
		ok := true
		n := 30 + rng.Intn(60)
		for i := 0; i < n; i++ {
			at := rng.Float64() * 50
			app := apps[rng.Intn(len(apps))]
			req := &Request{Resource: shapes[rng.Intn(len(shapes))], OnAllocate: func(cc *Container) {
				live = append(live, cc)
			}}
			for k := rng.Intn(4); k > 0; k-- {
				req.PreferredNodes = append(req.PreferredNodes, c.Nodes[rng.Intn(len(c.Nodes))])
			}
			eng.At(at, func() {
				app.Request(req)
				ok = ok && indexConsistent(rm)
			})
			switch rng.Intn(6) {
			case 0, 1:
				eng.At(at+rng.Float64()*20, func() {
					if len(live) > 0 {
						cc := live[0]
						live = live[1:]
						rm.Release(cc)
					}
					ok = ok && indexConsistent(rm)
				})
			case 2:
				eng.At(at+rng.Float64()*3, func() {
					app.CancelRequest(req)
					ok = ok && indexConsistent(rm)
				})
			}
		}
		// Periodic capacity and index audit.
		// The audit stops itself at t=100, so Run returns.
		eng.Tick(5, func() bool {
			for _, node := range c.Nodes {
				if node.Mem.Used() > node.Mem.Capacity+1e-6 {
					ok = false
				}
			}
			ok = ok && indexConsistent(rm)
			return eng.Now() < 100
		})
		eng.Run()
		// Drain everything.
		for _, cc := range live {
			rm.Release(cc)
		}
		eng.Run()
		for _, node := range c.Nodes {
			if node.Mem.Used() != 0 {
				// Containers still allocated are fine only if never
				// released; we released all we were given.
				return false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// newRMQuiet is newRM without the *testing.T (for property functions).
func newRMQuiet(sched Scheduler) (*sim.Engine, *cluster.Cluster, *ResourceManager) {
	eng := sim.NewEngine()
	c := cluster.New(eng, cluster.PaperConfig())
	rm := NewResourceManager(eng, c, sched)
	rm.SchedulingDelay = 0
	return eng, c, rm
}
