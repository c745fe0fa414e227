package yarn

import (
	"testing"

	"repro/internal/cluster"
)

// TestNodeLossReclaimsContainers kills a node and checks the RM
// declares it lost after the liveness expiry, releases its containers
// through OnNodeLost — or silently, for a request that set none — and
// excludes the node from placement until it restarts.
func TestNodeLossReclaimsContainers(t *testing.T) {
	for _, notify := range []bool{true, false} {
		eng, c, rm := newRM(t, FIFOScheduler{})
		app := rm.Submit("job")

		var got *Container
		lost, wantLost := 0, 0
		req := &Request{
			Resource:   Resource{MemMB: 1024, VCores: 1},
			OnAllocate: func(cont *Container) { got = cont },
		}
		if notify {
			req.OnNodeLost = func(cont *Container) { lost++ }
			wantLost = 1
		}
		app.Request(req)
		eng.Run()
		if got == nil {
			t.Fatalf("notify=%v: container never allocated", notify)
		}

		victim := got.Node
		eng.At(10, func() { c.KillNode(victim) })
		eng.Run()

		if lost != wantLost {
			t.Fatalf("notify=%v: OnNodeLost fired %d times, want %d", notify, lost, wantLost)
		}
		if !rm.NodeDeclaredLost(victim) {
			t.Fatalf("notify=%v: node not declared lost after expiry", notify)
		}
		if c.Faults.ContainersLost != 1 {
			t.Fatalf("notify=%v: ContainersLost = %d, want 1", notify, c.Faults.ContainersLost)
		}
		if app.Running() != 0 {
			t.Fatalf("notify=%v: app still running %d containers", notify, app.Running())
		}
		if used := victim.Mem.Used(); used != 0 {
			t.Fatalf("notify=%v: lost node still has %v MB allocated", notify, used)
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
			t.Fatalf("notify=%v: replacement container never allocated", notify)
		}
		if again.Node == victim {
			t.Fatalf("notify=%v: replacement placed on the dead node", notify)
		}
	}
}

// TestRestoreBeforeExpiryStillDeclaresLost pins the NM-resync rule: a
// node that bounces faster than the expiry window still loses its
// containers (the restarted NM has none), then rejoins.
func TestRestoreBeforeExpiryStillDeclaresLost(t *testing.T) {
	eng, c, rm := newRM(t, FIFOScheduler{})
	app := rm.Submit("job")

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
	app := rm.Submit("job")
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
	app := rm.Submit("job")

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

// TestContainerReclaimedInDelayNotReused: a container whose node is
// declared lost inside the scheduling delay is released there, while
// its launch event is still queued. The RM must not hand the object to
// a later placement until that event has fired, or the event would run
// the new placement's launch early and its owner would get the
// container twice. Once the event has fired, the object is reused.
func TestContainerReclaimedInDelayNotReused(t *testing.T) {
	eng, c, rm := newRM(t, FIFOScheduler{})
	rm.SchedulingDelay = 1
	rm.NodeExpirySecs = 0.25
	app := rm.Submit("job")
	shape := Resource{MemMB: 1024, VCores: 1}
	var reclaimed *Container
	app.Request(&Request{Resource: shape,
		OnAllocate: func(*Container) { t.Error("the reclaimed container launched") },
		OnNodeLost: func(cont *Container) { reclaimed = cont }})
	eng.At(0.1, func() {
		for _, n := range c.Nodes {
			if n.Mem.Used() > 0 {
				c.KillNode(n) // declared lost at 0.35, inside the delay
			}
		}
	})
	type grant struct {
		c  *Container
		at float64
	}
	var grants []grant
	eng.At(0.5, func() {
		app.Request(&Request{Resource: shape, OnAllocate: func(cont *Container) { grants = append(grants, grant{cont, eng.Now()}) }})
	})
	eng.Run()

	if reclaimed == nil {
		t.Fatal("the first container was not reclaimed")
	}
	if len(grants) != 1 || grants[0].at != 1.5 {
		t.Fatalf("the second request was granted %v, want once at 1.5", grants)
	}
	if grants[0].c == reclaimed {
		t.Fatal("the reclaimed container was placed again while its launch was queued")
	}
	rm.Release(grants[0].c)
	app.Request(&Request{Resource: shape, OnAllocate: func(cont *Container) { grants = append(grants, grant{cont, eng.Now()}) }})
	eng.Run()
	if got := grants[len(grants)-1].c; got != reclaimed && got != grants[0].c {
		t.Error("a released container whose launch had fired was not reused")
	}
}
