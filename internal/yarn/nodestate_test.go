package yarn

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// TestNodeLossReclaimsContainers kills a node and checks the RM
// declares it lost after the liveness expiry, releases its containers
// through OnNodeLost, and excludes the node from placement until it
// restarts.
func TestNodeLossReclaimsContainers(t *testing.T) {
	eng, c, rm := newRM(t, FIFOScheduler{})
	app := rm.Submit("job", 1)

	var got *Container
	lost := 0
	app.Request(&Request{
		Resource:   Resource{MemMB: 1024, VCores: 1},
		OnAllocate: func(cont *Container) { got = cont },
		OnNodeLost: func(cont *Container) { lost++ },
	})
	eng.Run()
	if got == nil {
		t.Fatal("container never allocated")
	}

	victim := got.Node
	eng.At(10, func() { c.KillNode(victim) })
	eng.Run()

	if lost != 1 {
		t.Fatalf("OnNodeLost fired %d times, want 1", lost)
	}
	if !rm.NodeDeclaredLost(victim) {
		t.Fatal("node not declared lost after expiry")
	}
	if c.Faults.ContainersLost != 1 {
		t.Fatalf("ContainersLost = %d, want 1", c.Faults.ContainersLost)
	}
	if app.Running() != 0 {
		t.Fatalf("app still running %d containers", app.Running())
	}

	// New requests must avoid the dead node.
	var again *Container
	app.Request(&Request{
		Resource:       Resource{MemMB: 1024, VCores: 1},
		PreferredNodes: []*cluster.Node{victim},
		OnAllocate:     func(cont *Container) { again = cont },
	})
	eng.Run()
	if again == nil {
		t.Fatal("replacement container never allocated")
	}
	if again.Node == victim {
		t.Fatal("replacement placed on the dead node")
	}
}

// TestScopedRMFaultCountersReachCluster: in rack-cell mode (a
// RackLocalNet cluster with a scoped RM) a node crash and the
// containers it loses are counted on the cluster-wide sheet, the one
// every report reads.
func TestScopedRMFaultCountersReachCluster(t *testing.T) {
	eng := sim.NewEngine()
	cfg := cluster.PaperConfig()
	cfg.RackLocalNet = true
	c := cluster.New(eng, cfg)
	rm := NewScopedResourceManager(eng, c, FIFOScheduler{}, 1)
	rm.SchedulingDelay = 0
	if rm.FaultCounters() != c.Faults {
		t.Fatal("scoped RM writes a counter sheet other than Cluster.Faults")
	}

	var got *Container
	rm.Submit("job", 1).Request(&Request{
		Resource:   Resource{MemMB: 1024, VCores: 1},
		OnAllocate: func(cont *Container) { got = cont },
	})
	eng.Run()
	if got == nil || got.Node.Rack != 1 {
		t.Fatalf("container not allocated on rack 1: %+v", got)
	}
	eng.At(10, func() { c.KillNode(got.Node) })
	eng.Run()

	if c.Faults.NodesDowned != 1 {
		t.Fatalf("NodesDowned = %d, want 1", c.Faults.NodesDowned)
	}
	if c.Faults.ContainersLost != 1 {
		t.Fatalf("ContainersLost = %d, want 1", c.Faults.ContainersLost)
	}
}

// TestRestoreBeforeExpiryStillDeclaresLost pins the NM-resync rule: a
// node that bounces faster than the expiry window still loses its
// containers (the restarted NM has none), then rejoins.
func TestRestoreBeforeExpiryStillDeclaresLost(t *testing.T) {
	eng, c, rm := newRM(t, FIFOScheduler{})
	app := rm.Submit("job", 1)

	var got *Container
	lost := 0
	app.Request(&Request{
		Resource:   Resource{MemMB: 1024, VCores: 1},
		OnAllocate: func(cont *Container) { got = cont },
		OnNodeLost: func(cont *Container) { lost++ },
	})
	eng.Run()
	victim := got.Node

	eng.At(10, func() { c.KillNode(victim) })
	eng.At(10+rm.NodeExpirySecs/2, func() { c.RestoreNode(victim) })
	eng.Run()

	if lost != 1 {
		t.Fatalf("OnNodeLost fired %d times, want 1 (resync must reclaim)", lost)
	}
	if rm.NodeDeclaredLost(victim) {
		t.Fatal("node still declared lost after restore")
	}

	// The rejoined node is placeable again.
	var again *Container
	app.Request(&Request{
		Resource:       Resource{MemMB: 1024, VCores: 1},
		PreferredNodes: []*cluster.Node{victim},
		OnAllocate:     func(cont *Container) { again = cont },
	})
	eng.Run()
	if again == nil || again.Node != victim {
		t.Fatal("restored node not used for a preferred placement")
	}
}

// TestBlacklistRoundTrip drives a node over the failure threshold,
// checks placement avoids it, and checks a restart clears the
// blacklist (Hadoop's NM-resync forgiveness).
func TestBlacklistRoundTrip(t *testing.T) {
	eng, c, rm := newRM(t, FIFOScheduler{})
	app := rm.Submit("job", 1)
	n := c.Nodes[0]

	for i := 0; i < rm.BlacklistThreshold-1; i++ {
		rm.ReportTaskFailure(n)
		if rm.Blacklisted(n) {
			t.Fatalf("blacklisted after %d failures (threshold %d)", i+1, rm.BlacklistThreshold)
		}
	}
	rm.ReportTaskFailure(n)
	if !rm.Blacklisted(n) {
		t.Fatal("not blacklisted at threshold")
	}
	if c.Faults.NodesBlacklisted != 1 {
		t.Fatalf("NodesBlacklisted = %d, want 1", c.Faults.NodesBlacklisted)
	}

	// Placement must skip the blacklisted node even when preferred.
	var got *Container
	app.Request(&Request{
		Resource:       Resource{MemMB: 1024, VCores: 1},
		PreferredNodes: []*cluster.Node{n},
		OnAllocate:     func(cont *Container) { got = cont },
	})
	eng.Run()
	if got == nil {
		t.Fatal("container never allocated")
	}
	if got.Node == n {
		t.Fatal("placed on a blacklisted node")
	}

	// Restart clears the blacklist and the failure count.
	eng.At(100, func() { c.KillNode(n) })
	eng.At(200, func() { c.RestoreNode(n) })
	eng.Run()
	if rm.Blacklisted(n) {
		t.Fatal("blacklist survived a node restart")
	}
	if c.Faults.NodesUnblacklisted != 1 {
		t.Fatalf("NodesUnblacklisted = %d, want 1", c.Faults.NodesUnblacklisted)
	}
	rm.ReportTaskFailure(n)
	if rm.Blacklisted(n) {
		t.Fatal("failure count not reset by restart")
	}
}

// TestBlacklistIgnoredWhenTooWide pins the 33% ignore threshold: when
// blacklisting would exclude too much of the cluster, placement uses
// blacklisted nodes anyway rather than starving.
func TestBlacklistIgnoredWhenTooWide(t *testing.T) {
	eng, c, rm := newRM(t, FIFOScheduler{})
	app := rm.Submit("job", 1)

	// Blacklist 7 of 18 nodes (> 33%).
	for i := 0; i < 7; i++ {
		for j := 0; j < rm.BlacklistThreshold; j++ {
			rm.ReportTaskFailure(c.Nodes[i])
		}
	}

	// Ask for one whole-node container per node: if the blacklist were
	// honored, 7 of the 18 requests could never place.
	mem := c.Nodes[0].Mem.Capacity
	placed := 0
	onBlacklisted := 0
	for i := 0; i < len(c.Nodes); i++ {
		app.Request(&Request{Resource: Resource{MemMB: mem, VCores: 1}, OnAllocate: func(cont *Container) {
			placed++
			if rm.Blacklisted(cont.Node) {
				onBlacklisted++
			}
		}})
	}
	eng.Run()
	if placed != len(c.Nodes) {
		t.Fatalf("placed %d of %d requests: blacklist not ignored above threshold", placed, len(c.Nodes))
	}
	if onBlacklisted == 0 {
		t.Fatal("no placement used a blacklisted node")
	}
}
