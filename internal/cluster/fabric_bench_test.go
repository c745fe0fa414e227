package cluster

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// BenchmarkFabricChurn measures flow start/complete cost with ongoing
// contention (the simulator's hot path) on a small 8-link fabric.
func BenchmarkFabricChurn(b *testing.B) {
	eng := sim.NewEngine()
	fb := NewFabric(eng, "bench")
	links := make([]*Link, 8)
	for i := range links {
		links[i] = fb.AddLink(fmt.Sprintf("l%d", i), 100)
	}
	for i := 0; i < 40; i++ {
		fb.Start([]*Link{links[i%8]}, 1e12, 0, nil) // standing load
	}
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	var launch func(i int)
	launch = func(i int) {
		fb.Start([]*Link{links[i%8], links[(i+3)%8]}, 50, 0, func() {
			done++
			if done < b.N {
				launch(done)
			}
		})
	}
	launch(0)
	eng.Run()
}

// BenchmarkFabricChurnLarge exercises the cluster network fabric at
// production scale: 128 nodes in two racks (256 NIC links plus two
// rack uplinks). A standing load of long rack-local transfers keeps
// every node's NIC busy while short transfers churn through the
// fabric; every start and finish triggers a fair-share recomputation.
// Most churn is rack-local (as a locality-aware scheduler would place
// it), so the dirty region of each recomputation is a handful of
// links; every 16th transfer crosses the rack uplinks.
func BenchmarkFabricChurnLarge(b *testing.B) {
	eng := sim.NewEngine()
	cfg := Config{
		RackSizes:      []int{64, 64},
		CoresPerNode:   8,
		VCoresPerNode:  28,
		ContainerMemMB: 6 * 1024,
		DiskMBps:       90,
		NICMBps:        117,
		UplinkMBps:     2000,
	}
	c := New(eng, cfg)
	n := len(c.Nodes)
	rackSize := cfg.RackSizes[0]
	// Standing load: one long rack-local transfer per node.
	for i := 0; i < n; i++ {
		base := i / rackSize * rackSize
		dst := c.Nodes[base+(i-base+1)%rackSize]
		c.Transfer(c.Nodes[i], dst, 1e12, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	var launch func(k int)
	launch = func(k int) {
		si := (k * 13) % n
		src := c.Nodes[si]
		var dst *Node
		if k%16 == 0 {
			dst = c.Nodes[(si+rackSize)%n] // cross-rack
		} else {
			base := si / rackSize * rackSize
			dst = c.Nodes[base+(si-base+7)%rackSize] // rack-local
		}
		c.Transfer(src, dst, 10, func() {
			done++
			if done < b.N {
				launch(done)
			}
		})
	}
	launch(0)
	eng.Run()
}

// TestRecomputeSteadyStateAllocationFree pins the allocation-free
// recompute: once the scratch buffers have grown to the component size,
// a recomputation whose rates do not change must not allocate — on both
// the small-component insertion-sort path and the large-component
// bitmap path.
func TestRecomputeSteadyStateAllocationFree(t *testing.T) {
	for _, nFlows := range []int{8, 32} { // ≤24 and >24 ordering paths
		eng := sim.NewEngine()
		fb := NewFabric(eng, "alloc")
		l := fb.AddLink("l", 100)
		for i := 0; i < nFlows; i++ {
			fb.Start([]*Link{l}, 1e12, 0, nil)
		}
		seeds := []*Link{l}
		fb.recompute(seeds, nil) // warm the scratch buffers
		if a := testing.AllocsPerRun(100, func() { fb.recompute(seeds, nil) }); a != 0 {
			t.Errorf("steady-state recompute (%d flows) allocates %v per run, want 0", nFlows, a)
		}
	}
}

// BenchmarkFabricCappedStable measures the steady-state CPU-pool
// pattern: many rate-capped flows whose caps bind (sum of caps below
// link capacity), churned by short capped flows. The standing flows'
// rates never change, so an incremental fabric should leave their
// completion events untouched.
func BenchmarkFabricCappedStable(b *testing.B) {
	eng := sim.NewEngine()
	fb := NewFabric(eng, "cpu")
	l := fb.AddLink("cpu", 8)
	const capRate = 8.0 / 56 // uniform vcore-style cap, sum well under capacity
	for i := 0; i < 24; i++ {
		fb.Start([]*Link{l}, 1e12, capRate, nil) // standing capped load
	}
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	var launch func()
	launch = func() {
		fb.Start([]*Link{l}, 0.05, capRate, func() {
			done++
			if done < b.N {
				launch()
			}
		})
	}
	launch()
	eng.Run()
}
