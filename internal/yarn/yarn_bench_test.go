package yarn

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// BenchmarkSchedulerChurn storms a 128-node cluster with
// variable-shape container place/release cycles against a standing
// load, the placement hot path of every multi-job experiment. Each
// request prefers one node, so delay scheduling, the free-capacity
// index, and the relax-retry machinery are all on the measured path.
func BenchmarkSchedulerChurn(b *testing.B) {
	eng := sim.NewEngine()
	c := cluster.New(eng, cluster.Config{
		RackSizes:      []int{64, 64},
		CoresPerNode:   8,
		VCoresPerNode:  28,
		ContainerMemMB: 6 * 1024,
		DiskMBps:       90,
		NICMBps:        117,
		UplinkMBps:     2000,
	})
	rm := NewResourceManager(eng, c, FIFOScheduler{})
	app := rm.Submit("churn", 1)
	// Standing load: two thirds of every node held by long-lived
	// containers, so placement always works against a loaded index.
	for range c.Nodes {
		for k := 0; k < 4; k++ {
			app.Request(&Request{
				Resource:   Resource{MemMB: 1024, VCores: 4},
				OnAllocate: func(*Container) {},
			})
		}
	}
	eng.Run() // settle the standing load before the clock starts
	shapes := []Resource{
		{MemMB: 512, VCores: 1},
		{MemMB: 1024, VCores: 2},
		{MemMB: 1536, VCores: 3},
		{MemMB: 2048, VCores: 4},
		{MemMB: 768, VCores: 1},
	}
	n := len(c.Nodes)
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	var launch func(k int)
	launch = func(k int) {
		app.Request(&Request{
			Resource:       shapes[k%len(shapes)],
			PreferredNodes: []*cluster.Node{c.Nodes[(k*13)%n]},
			OnAllocate: func(cont *Container) {
				eng.After(0.25, func() {
					rm.Release(cont)
					done++
					if done < b.N {
						launch(done)
					}
				})
			},
		})
	}
	for i := 0; i < 32 && i < b.N; i++ {
		launch(i)
	}
	eng.Run()
}

// TestPlacementHotPathAllocationFree pins the allocation behavior of
// the placement hot path: the per-node, per-pass placement queries,
// the relax-retry expiry search, the coalesced and the non-coalesced
// relax-retry wakeup, and the preferred-node bitset sweep must not
// allocate.
func TestPlacementHotPathAllocationFree(t *testing.T) {
	eng, c, rm := newRMQuiet(FIFOScheduler{})
	app := rm.Submit("alloc", 1)
	// A satisfiable request warms the placement path, and an
	// unsatisfiably large one keeps the pending shape sets non-empty.
	app.Request(&Request{Resource: Resource{MemMB: 1024, VCores: 1}, OnAllocate: func(*Container) {}})
	eng.Run()
	app.Request(&Request{
		Resource:       Resource{MemMB: 1 << 30, VCores: 1},
		PreferredNodes: []*cluster.Node{c.Nodes[0]},
	})

	node := c.Nodes[0]
	shape := Resource{MemMB: 512, VCores: 1}
	if a := testing.AllocsPerRun(100, func() { rm.fits(node, shape) }); a != 0 {
		t.Errorf("fits allocates %v per run, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { app.hasFittingRequest(node) }); a != 0 {
		t.Errorf("hasFittingRequest allocates %v per run, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { rm.anyPendingFits(node) }); a != 0 {
		t.Errorf("anyPendingFits allocates %v per run, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { rm.relaxExpiry() }); a != 0 {
		t.Errorf("relaxExpiry allocates %v per run, want 0", a)
	}
	// First call arms the wakeup for the pending preferred request;
	// every further call finds it coalesced and must be free.
	rm.scheduleRelaxRetry(rm.relaxExpiry())
	if rm.RetryWakeupsScheduled() != 1 {
		t.Fatalf("retry wakeups = %d, want 1", rm.RetryWakeupsScheduled())
	}
	if a := testing.AllocsPerRun(100, func() { rm.scheduleRelaxRetry(rm.relaxExpiry()) }); a != 0 {
		t.Errorf("coalesced scheduleRelaxRetry allocates %v per run, want 0", a)
	}
	if rm.RetryWakeupsScheduled() != 1 {
		t.Fatalf("coalesced calls scheduled more wakeups: %d", rm.RetryWakeupsScheduled())
	}
	// The preferred-node bitset scan, alone and as a whole sweep: only
	// node-local demand is pending and none of it fits, so assign jumps
	// to the one preferred node and places nothing.
	if a := testing.AllocsPerRun(100, func() { rm.nextPreferred(0) }); a != 0 {
		t.Errorf("nextPreferred allocates %v per run, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { rm.assign() }); a != 0 {
		t.Errorf("preferred-only assign allocates %v per run, want 0", a)
	}
	// Arming a wakeup at a new instant shares the cached callback: once
	// the engine's event free list is warm, it allocates nothing either.
	// (Last: running the engine ages the request past its delays.)
	eng.Run()
	armed := rm.RetryWakeupsScheduled()
	next := eng.Now() + 1
	if a := testing.AllocsPerRun(100, func() {
		next++
		rm.scheduleRelaxRetry(next)
		eng.Run()
	}); a != 0 {
		t.Errorf("non-coalesced scheduleRelaxRetry allocates %v per run, want 0", a)
	}
	if got := rm.RetryWakeupsScheduled() - armed; got != 101 {
		t.Fatalf("non-coalesced calls armed %d wakeups, want 101 (one per run plus the warm-up)", got)
	}
}

// BenchmarkAssignSparseLocality is the serving day's YARN shape: a
// 10,016-node cluster (313 racks of 32) where every request is
// node-local to the up-to-3 replica holders of its split, so each
// sweep may place on only a handful of nodes. It measures one request
// through placement and release with 64 in flight.
func BenchmarkAssignSparseLocality(b *testing.B) {
	eng := sim.NewEngine()
	racks := make([]int, 313)
	for i := range racks {
		racks[i] = 32
	}
	cfg := cluster.PaperConfig()
	cfg.RackSizes = racks
	c := cluster.New(eng, cfg)
	rm := NewResourceManager(eng, c, FairScheduler{})
	app := rm.Submit("local", 1)
	n := len(c.Nodes)
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	var launch func(k int)
	launch = func(k int) {
		first := (k * 7919) % n
		app.Request(&Request{
			Resource: Resource{MemMB: 1024, VCores: 2},
			// Replica holders: one node, a second on another rack,
			// and a third beside it (HDFS's default placement).
			PreferredNodes: []*cluster.Node{c.Nodes[first], c.Nodes[(first+4099)%n], c.Nodes[(first+4100)%n]},
			OnAllocate: func(cont *Container) {
				eng.After(0.25, func() {
					rm.Release(cont)
					done++
					if done < b.N {
						launch(done)
					}
				})
			},
		})
	}
	for i := 0; i < 64 && i < b.N; i++ {
		launch(i)
	}
	eng.Run()
}
