package cluster

import (
	"testing"

	"repro/internal/sim"
)

func TestInstantaneousLoads(t *testing.T) {
	eng, c := newTestCluster(t)
	n := c.Nodes[0]
	if n.CPULoad() != 0 || n.DiskLoad() != 0 {
		t.Fatal("idle node reports load")
	}
	n.Compute(1000, 4, nil)
	n.DiskWrite(10000, nil)
	eng.RunUntil(0.001)
	if got := n.CPULoad(); !almostEqual(got, 0.5, 1e-9) {
		t.Fatalf("CPULoad = %v, want 0.5 (4 of 8 cores)", got)
	}
	if got := n.DiskLoad(); !almostEqual(got, 1.0, 1e-9) {
		t.Fatalf("DiskLoad = %v, want 1.0", got)
	}
}

func TestInjectDiskLoadCompetesFairly(t *testing.T) {
	eng, c := newTestCluster(t)
	n := c.Nodes[0]
	// One background hog capped at 60 MB/s plus one task flow: each
	// gets the 45 MB/s fair share while both are active.
	n.InjectDiskLoad(60, 100, nil)
	var taskDone float64
	n.DiskRead(45, func() { taskDone = eng.Now() })
	eng.RunUntil(2)
	if !almostEqual(taskDone, 1, 1e-6) {
		t.Fatalf("task finished at %v, want 1 (45 MB at fair-share 45 MB/s)", taskDone)
	}
}

func TestInjectCPULoadExpires(t *testing.T) {
	eng, c := newTestCluster(t)
	n := c.Nodes[0]
	fired := false
	n.InjectCPULoad(2, 5, func() { fired = true })
	eng.Run()
	if !fired {
		t.Fatal("background CPU load never completed")
	}
	// 2 cores * 5 s = 10 core-seconds at up to 2 cores: exactly 5 s.
	if !almostEqual(eng.Now(), 5, 1e-6) {
		t.Fatalf("background load ran until %v, want 5", eng.Now())
	}
	if n.CPULoad() != 0 {
		t.Fatal("load did not drop after expiry")
	}
}

func TestManyInjectedFlowsHogNode(t *testing.T) {
	eng, c := newTestCluster(t)
	n := c.Nodes[0]
	for k := 0; k < 8; k++ {
		n.InjectDiskLoad(30, 100, nil)
	}
	var taskDone float64
	n.DiskRead(10, func() { taskDone = eng.Now() })
	eng.RunUntil(5)
	// 9 flows share 90 MB/s: the task reads at 10 MB/s.
	if !almostEqual(taskDone, 1, 1e-6) {
		t.Fatalf("task under 8 background flows finished at %v, want 1", taskDone)
	}
}

func TestCancelFlowViaNode(t *testing.T) {
	eng, c := newTestCluster(t)
	n := c.Nodes[0]
	fired := false
	f := n.DiskWrite(1e6, func() { fired = true })
	eng.RunUntil(1)
	n.CancelFlow(f)
	eng.Run()
	if fired {
		t.Fatal("canceled flow completed")
	}
	if !f.Done() {
		t.Fatal("canceled flow not marked done")
	}
	n.CancelFlow(nil) // harmless
}

func TestClusterTotals(t *testing.T) {
	_, c := newTestCluster(t)
	if got := c.TotalContainerMemMB(); got != 18*6*1024 {
		t.Fatalf("TotalContainerMemMB = %v", got)
	}
	if got := c.TotalVCores(); got != 18*28 {
		t.Fatalf("TotalVCores = %v", got)
	}
	if !c.SameRack(c.Racks[0][0], c.Racks[0][1]) {
		t.Fatal("SameRack false for rack mates")
	}
	if c.SameRack(c.Racks[0][0], c.Racks[1][0]) {
		t.Fatal("SameRack true across racks")
	}
	if c.NetworkFabric() == nil {
		t.Fatal("no network fabric")
	}
}

func TestFlowAccessors(t *testing.T) {
	eng, c := newTestCluster(t)
	n := c.Nodes[0]
	f := n.DiskWrite(90, nil)
	if f.Remaining() != 90 {
		t.Fatalf("Remaining = %v", f.Remaining())
	}
	eng.RunUntil(0.001)
	if f.Rate() != 90 {
		t.Fatalf("Rate = %v, want full bandwidth", f.Rate())
	}
	if f.Done() {
		t.Fatal("flow done prematurely")
	}
	eng.Run()
	if !f.Done() {
		t.Fatal("flow not done after completion")
	}
}

func TestFabricActiveFlows(t *testing.T) {
	eng := sim.NewEngine()
	fb := NewFabric(eng, "t")
	l := fb.AddLink("l", 10)
	fb.Start([]*Link{l}, 10, 0, nil)
	fb.Start([]*Link{l}, 10, 0, nil)
	if fb.ActiveFlows() != 2 {
		t.Fatalf("ActiveFlows = %d", fb.ActiveFlows())
	}
	eng.Run()
	if fb.ActiveFlows() != 0 {
		t.Fatalf("ActiveFlows after drain = %d", fb.ActiveFlows())
	}
}

func TestFlowCancelMethod(t *testing.T) {
	eng, c := newTestCluster(t)
	n := c.Nodes[0]
	fired := false
	f := n.DiskWrite(1e6, func() { fired = true })
	eng.RunUntil(1)
	f.Cancel()
	f.Cancel() // idempotent
	eng.Run()
	if fired || !f.Done() {
		t.Fatal("Flow.Cancel misbehaved")
	}
}
