package yarn

import (
	"fmt"
	"math"
	"strings"
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
			Resource:   Resource{MemMB: c.Nodes[0].ContainerMemMB, VCores: c.Nodes[0].VCores},
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

// TestContainerLedger: the RM's per-node booking of memory and vcores
// is the only record of what containers hold, so it must balance. A
// placement books its memory, a shape larger than what is left free no
// longer fits, and the release returns the booking to zero. At every step each node's booking is what its placed, unreleased
// containers hold; after placements, releases, a node loss and a
// restore, it is zero on every node. A release that overshoots the
// booking by a rounding error leaves zero, not a negative booking, and
// one larger than the booking panics.
func TestContainerLedger(t *testing.T) {
	// place books each shape as a container on node 0 and returns the
	// containers in placement order.
	place := func(t *testing.T, mbs ...float64) (*ResourceManager, []*Container) {
		eng, c, rm := newRMQuiet(FIFOScheduler{})
		app := rm.Submit("ledger")
		var conts []*Container
		for _, mb := range mbs {
			app.Request(&Request{
				Resource:       Resource{MemMB: mb, VCores: 1},
				PreferredNodes: []*cluster.Node{c.Nodes[0]},
				OnAllocate:     func(cont *Container) { conts = append(conts, cont) },
			})
		}
		eng.Run()
		if len(conts) != len(mbs) || conts[len(conts)-1].Node != c.Nodes[0] {
			t.Fatalf("placed %d of %d containers, want all on %s", len(conts), len(mbs), c.Nodes[0].Name)
		}
		return rm, conts
	}
	t.Run("allocate release", func(t *testing.T) {
		rm, conts := place(t, 600)
		n := conts[0].Node
		if got := rm.BookedMemMB(n); got != 600 {
			t.Fatalf("booked %v MB after placing 600 MB, want 600", got)
		}
		free := n.ContainerMemMB - 600
		if !rm.fits(n, Resource{MemMB: free, VCores: 1}) {
			t.Fatalf("%v MB does not fit the %v MB left free", free, free)
		}
		if rm.fits(n, Resource{MemMB: free + 1, VCores: 1}) {
			t.Fatalf("%v MB fits though only %v MB is left free", free+1, free)
		}
		rm.Release(conts[0])
		if got := rm.BookedMemMB(n); got != 0 {
			t.Fatalf("booked %v MB after releasing everything, want 0", got)
		}
	})
	t.Run("balances", func(t *testing.T) {
		eng, c, rm := newRMQuiet(FIFOScheduler{})
		rm.NodeExpirySecs = 1
		check := func(when string) {
			t.Helper()
			mem := make([]float64, len(c.Nodes))
			vc := make([]int, len(c.Nodes))
			for _, app := range rm.apps {
				for _, cont := range app.live {
					mem[cont.Node.ID] += cont.Resource.MemMB
					vc[cont.Node.ID] += cont.Resource.VCores
				}
			}
			for i, n := range c.Nodes {
				if got := rm.BookedMemMB(n); math.Abs(got-mem[i]) > 1e-6 || rm.nodeUsedVC[i] != vc[i] {
					t.Fatalf("%s: %s books %v MB and %d vcores, its containers hold %v MB and %d vcores",
						when, n.Name, got, rm.nodeUsedVC[i], mem[i], vc[i])
				}
			}
		}
		app := rm.Submit("ledger")
		var live []*Container
		for i := 0; i < 60; i++ {
			app.Request(&Request{
				Resource:   Resource{MemMB: 700 + float64(i%5)*256, VCores: 1 + i%3},
				OnAllocate: func(cont *Container) { live = append(live, cont); check("after place") },
			})
		}
		eng.Run()
		if app.Pending() != 0 {
			t.Fatalf("%d requests still pending", app.Pending())
		}
		check("after placements")
		for _, cont := range live[:20] {
			rm.Release(cont)
			check("after release")
		}
		victim := live[20].Node
		c.KillNode(victim)
		eng.Run()
		if !rm.NodeDeclaredLost(victim) {
			t.Fatalf("%s not declared lost", victim.Name)
		}
		check("after node loss")
		c.RestoreNode(victim)
		eng.Run()
		check("after restore")
		for _, cont := range live[20:] {
			if !cont.released {
				rm.Release(cont)
			}
		}
		eng.Run()
		for i, n := range c.Nodes {
			if rm.BookedMemMB(n) != 0 || rm.nodeUsedVC[i] != 0 {
				t.Errorf("%s still books %v MB and %d vcores", n.Name, rm.BookedMemMB(n), rm.nodeUsedVC[i])
			}
		}
	})
	t.Run("rounding overshoot", func(t *testing.T) {
		// 0.3 + 0.6 - 0.3 - 0.6 is -1.1e-16 in float64.
		rm, conts := place(t, 0.3, 0.6)
		for _, cont := range conts {
			rm.Release(cont)
		}
		if got := rm.BookedMemMB(conts[0].Node); got != 0 {
			t.Fatalf("booked %v MB after releasing everything, want 0", got)
		}
	})
	t.Run("over-release panics", func(t *testing.T) {
		rm, conts := place(t, 1024)
		conts[0].Resource.MemMB = 2048 // the shape changed after placement
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "exceeds the 1024 MB booked there") {
				t.Fatalf("over-release panicked with %q, want the booking named", msg)
			}
		}()
		rm.Release(conts[0])
	})
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
