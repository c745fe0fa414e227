package yarn

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// TestRelaxRetryCoalescing pins the wakeup coalescing: K locality-
// restricted requests enqueued at the same instant on a full cluster
// share their delay-scheduling expiries, so exactly two retry wakeups
// are scheduled in total (rack delay, then off-rack delay) — not 2K.
func TestRelaxRetryCoalescing(t *testing.T) {
	eng, c, rm := newRMQuiet(FIFOScheduler{})
	holder := rm.Submit("holder")
	for range c.Nodes {
		holder.Request(&Request{
			Resource:   Resource{MemMB: c.Nodes[0].Mem.Capacity, VCores: c.Nodes[0].VCores},
			OnAllocate: func(*Container) {}, // held forever
		})
	}
	eng.Run()
	if got := rm.RetryWakeupsScheduled(); got != 0 {
		t.Fatalf("wakeups after fill = %d, want 0", got)
	}

	app := rm.Submit("blocked")
	const K = 16
	for i := 0; i < K; i++ {
		app.Request(&Request{
			Resource:       Resource{MemMB: 1024, VCores: 1},
			PreferredNodes: []*cluster.Node{c.Nodes[i%len(c.Nodes)]},
		})
	}
	eng.Run()
	// One wakeup at enqueued+RackDelay, one at enqueued+OffRackDelay,
	// shared by all K requests.
	if got := rm.RetryWakeupsScheduled(); got != 2 {
		t.Fatalf("retry wakeups = %d, want 2 for %d same-instant requests", got, K)
	}
	if app.Pending() != K {
		t.Fatalf("pending = %d, want %d (cluster is full)", app.Pending(), K)
	}
}

// TestPlacementDeterministicAcrossRuns runs an identical mixed
// place/release workload on two fresh engines and requires the full
// allocation trace — container IDs, nodes, and simulated timestamps —
// to match event for event. This is the same-seed identity guarantee
// the free-capacity index and wakeup coalescing must preserve.
func TestPlacementDeterministicAcrossRuns(t *testing.T) {
	trace := func() []string {
		eng := sim.NewEngine()
		c := cluster.New(eng, cluster.PaperConfig())
		rm := NewResourceManager(eng, c, FairScheduler{})
		var log []string
		shapes := []Resource{
			{MemMB: 1024, VCores: 2},
			{MemMB: 2048, VCores: 4},
			{MemMB: 1536, VCores: 2},
		}
		for a := 0; a < 3; a++ {
			app := rm.Submit(fmt.Sprintf("app%d", a))
			for i := 0; i < 40; i++ {
				i := i
				name := app.Name
				app.Request(&Request{
					Resource:       shapes[(a+i)%len(shapes)],
					PreferredNodes: []*cluster.Node{c.Nodes[(a*7+i*5)%len(c.Nodes)]},
					OnAllocate: func(cont *Container) {
						log = append(log, fmt.Sprintf("%.6f %s c%d %s %v",
							eng.Now(), name, cont.ID, cont.Node.Name, cont.Resource))
						eng.After(1.5+float64(i%4), func() { rm.Release(cont) })
					},
				})
			}
		}
		eng.Run()
		return log
	}
	a, b := trace(), trace()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at event %d:\n  run1: %s\n  run2: %s", i, a[i], b[i])
		}
	}
	if len(a) != 120 {
		t.Fatalf("trace has %d allocations, want 120", len(a))
	}
}

// TestFreeCapacityIndexMirrorsMemPools churns placements and releases
// and checks after every step that the RM's free-capacity mirror
// arrays agree bit-for-bit with the nodes' MemPool accounting.
func TestFreeCapacityIndexMirrorsMemPools(t *testing.T) {
	eng, c, rm := newRMQuiet(FIFOScheduler{})
	check := func(when string) {
		for i, n := range c.Nodes {
			if rm.nodeUsedMem[i] != n.Mem.Used() {
				t.Fatalf("%s: node %d mirror=%v pool=%v", when, i, rm.nodeUsedMem[i], n.Mem.Used())
			}
		}
	}
	app := rm.Submit("mirror")
	var live []*Container
	for i := 0; i < 60; i++ {
		app.Request(&Request{
			Resource: Resource{MemMB: 700 + float64(i%5)*256, VCores: 1 + i%3},
			OnAllocate: func(cont *Container) {
				live = append(live, cont)
				check("after place")
			},
		})
	}
	eng.Run()
	check("after churn")
	for _, cont := range live {
		rm.Release(cont)
		check("after release")
	}
}

// FuzzRelaxRetry drives an RM through request, cancel, finish, release
// and advance schedules decoded from the fuzzer's input, one byte per
// decision (0 once the input runs out): requests with and without node
// preferences, many enqueued at one instant, a NodeFilter on or off,
// and delays drawn independently, so RackDelay may reach OffRackDelay.
// After every step the order-based oldestConstrainedEnqueue and
// relaxExpiry must equal the linear scans over every pending request,
// each pending list must be in enqueue order with each request's index
// its position, and CancelRequest must succeed exactly when the request
// is pending on the app it is called on.
func FuzzRelaxRetry(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 4, 1, 0, 1, 0, 1, 1, 0, 0, 1, 1, 2, 0, 4, 2, 4, 3, 0, 2, 5, 1, 4, 5, 2, 0, 6, 1})
	f.Add([]byte("delay scheduling: rack, then off-rack, then the hot-spot fallback"))
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		next := func(n int) int {
			if pos >= len(data) {
				return 0
			}
			pos++
			return int(data[pos-1]) % n
		}
		eng := sim.NewEngine()
		c := cluster.New(eng, cluster.PaperConfig())
		rm := NewResourceManager(eng, c, FIFOScheduler{})
		delays := []float64{0, 0.1, 0.5, 1, 2, 5, 7.5}
		rm.SchedulingDelay = delays[next(3)]
		rm.RackDelay = delays[next(len(delays))]
		rm.OffRackDelay = delays[next(len(delays))]
		rm.HotSpotFallbackDelay = delays[next(len(delays))]
		if next(2) == 1 {
			rm.NodeFilter = func(n *cluster.Node) bool { return n.ID%3 != 0 }
		}
		apps := []*App{rm.Submit("a"), rm.Submit("b"), rm.Submit("c")}
		// Small requests place while the cluster has room; an oversized
		// one never fits, so pending lists also grow.
		shapes := []Resource{{MemMB: 1024, VCores: 1}, {MemMB: 4096, VCores: 4}, {MemMB: 1 << 30, VCores: 1}}
		steps := []float64{0, 0, 0.1, 0.3, 1, 2.5}
		var reqs []*Request
		var live []*Container
		for step := 0; pos < len(data) && step < 512; step++ {
			switch op := next(6); op {
			case 0, 1:
				req := &Request{Resource: shapes[next(len(shapes))]}
				for k := next(3); k > 0; k-- {
					req.PreferredNodes = append(req.PreferredNodes, c.Nodes[next(len(c.Nodes))])
				}
				req.OnAllocate = func(cont *Container) { live = append(live, cont) }
				reqs = append(reqs, req)
				apps[next(len(apps))].Request(req)
			case 2:
				if len(reqs) == 0 {
					break
				}
				req, app := reqs[next(len(reqs))], apps[next(len(apps))]
				pending := false
				for _, r := range app.pending {
					pending = pending || r == req
				}
				if got := app.CancelRequest(req); got != pending {
					t.Fatalf("step %d: CancelRequest = %v on app %d, want %v", step, got, app.ID, pending)
				}
			case 3:
				// Finish an app with no live containers and submit a
				// fresh one in its place.
				i := next(len(apps))
				busy := false
				for _, cont := range live {
					busy = busy || cont.App == apps[i]
				}
				if !busy {
					apps[i].Finish()
					apps[i] = rm.Submit("next")
				}
			case 4:
				if len(live) > 0 {
					k := next(len(live))
					cont := live[k]
					live = append(live[:k], live[k+1:]...)
					rm.Release(cont)
				}
			default:
				eng.RunUntil(eng.Now() + steps[next(len(steps))])
			}
			if got, want := rm.oldestConstrainedEnqueue(), rm.oldestConstrainedEnqueueScan(); got != want {
				t.Fatalf("step %d at t=%g: oldestConstrainedEnqueue = %g, linear scan %g", step, eng.Now(), got, want)
			}
			if got, want := rm.relaxExpiry(), rm.relaxExpiryScan(); got != want {
				t.Fatalf("step %d at t=%g: relaxExpiry = %g, linear scan %g", step, eng.Now(), got, want)
			}
			if msg := pendingOrderError(rm); msg != "" {
				t.Fatalf("step %d at t=%g: %s", step, eng.Now(), msg)
			}
		}
	})
}
