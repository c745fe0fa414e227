package cluster

import (
	"testing"

	"repro/internal/sim"
)

func newTestCluster(t *testing.T) (*sim.Engine, *Cluster) {
	t.Helper()
	eng := sim.NewEngine()
	return eng, New(eng, PaperConfig())
}

func TestPaperConfigShape(t *testing.T) {
	eng, c := newTestCluster(t)
	_ = eng
	if len(c.Nodes) != 18 {
		t.Fatalf("worker nodes = %d, want 18", len(c.Nodes))
	}
	if len(c.Racks) != 2 || len(c.Racks[0]) != 9 || len(c.Racks[1]) != 9 {
		t.Fatalf("rack layout wrong: %d racks", len(c.Racks))
	}
	n := c.Nodes[0]
	if n.VCores != 28 {
		t.Fatalf("vcores = %d, want 28", n.VCores)
	}
	if n.Mem.Capacity != 6*1024 {
		t.Fatalf("container mem = %v, want 6144", n.Mem.Capacity)
	}
	if got := n.CoreRatio(); got <= 0.2 || got >= 0.4 {
		t.Fatalf("core ratio = %v, want ~8/28", got)
	}
}

func TestMemPoolAllocateRelease(t *testing.T) {
	eng := sim.NewEngine()
	p := NewMemPool(eng, "m", 1000)
	if err := p.Allocate(600); err != nil {
		t.Fatal(err)
	}
	if err := p.Allocate(500); err == nil {
		t.Fatal("overallocation succeeded")
	}
	if p.Free() != 400 {
		t.Fatalf("Free = %v, want 400", p.Free())
	}
	p.Release(600)
	if p.Used() != 0 {
		t.Fatalf("Used = %v, want 0", p.Used())
	}
	if err := p.Allocate(-1); err == nil {
		t.Fatal("negative allocation succeeded")
	}
}

func TestMemPoolDoubleReleasePanics(t *testing.T) {
	eng := sim.NewEngine()
	p := NewMemPool(eng, "m", 1000)
	if err := p.Allocate(100); err != nil {
		t.Fatal(err)
	}
	p.Release(100)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	p.Release(100)
}

func TestMemPoolUtilization(t *testing.T) {
	eng := sim.NewEngine()
	p := NewMemPool(eng, "m", 1000)
	if err := p.Allocate(500); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(10)
	if u := p.Utilization(10); !almostEqual(u, 0.5, 1e-9) {
		t.Fatalf("utilization = %v, want 0.5", u)
	}
}

func TestComputeCappedByVCores(t *testing.T) {
	eng, c := newTestCluster(t)
	n := c.Nodes[0]
	// 1 vcore = 8/28 cores. 8 core-seconds at that rate = 28 seconds.
	var done float64
	n.Compute(8, 1*n.CoreRatio(), func() { done = eng.Now() })
	eng.Run()
	want := 8 / n.CoreRatio()
	if !almostEqual(done, want, 1e-6) {
		t.Fatalf("capped compute finished at %v, want %v", done, want)
	}
}

func TestComputeContention(t *testing.T) {
	eng, c := newTestCluster(t)
	n := c.Nodes[0]
	// 16 flows each wanting a full core on an 8-core node: each gets
	// 0.5 cores.
	var last float64
	for i := 0; i < 16; i++ {
		n.Compute(4, 1, func() {
			if eng.Now() > last {
				last = eng.Now()
			}
		})
	}
	eng.Run()
	if !almostEqual(last, 8, 1e-6) {
		t.Fatalf("contended compute finished at %v, want 8", last)
	}
}

func TestTransferSameRackVsCrossRack(t *testing.T) {
	eng, c := newTestCluster(t)
	same := c.Racks[0][0]
	peer := c.Racks[0][1]
	cross := c.Racks[1][0]

	var tSame, tCross float64
	c.Transfer(same, peer, 117, func() { tSame = eng.Now() })
	eng.Run()
	c.Transfer(same, cross, 117, func() { tCross = eng.Now() })
	eng.Run()
	if !almostEqual(tSame, 1, 1e-6) {
		t.Fatalf("same-rack 117MB at 117MB/s took until %v, want 1", tSame)
	}
	// Cross-rack, uncontended: still NIC-bound since uplink is 500.
	if tCross-tSame > 1.0001 {
		t.Fatalf("cross-rack uncontended transfer took %v, want ~1", tCross-tSame)
	}
}

func TestUplinkContention(t *testing.T) {
	eng, c := newTestCluster(t)
	// 9 cross-rack transfers of 500 MB each from distinct rack-0 nodes
	// to distinct rack-1 nodes: aggregate demand 9*117=1053 > 500
	// uplink. Uplink-fair share ~55.6 MB/s each -> ~9 s.
	var last float64
	for i := 0; i < 9; i++ {
		c.Transfer(c.Racks[0][i], c.Racks[1][i], 500, func() {
			if eng.Now() > last {
				last = eng.Now()
			}
		})
	}
	eng.Run()
	want := 500 / (500.0 / 9)
	if !almostEqual(last, want, 1e-6) {
		t.Fatalf("uplink-contended transfers finished at %v, want %v", last, want)
	}
}

func TestSameNodeTransferInstant(t *testing.T) {
	eng, c := newTestCluster(t)
	n := c.Nodes[0]
	var done float64 = -1
	c.Transfer(n, n, 1000, func() { done = eng.Now() })
	eng.Run()
	if done > 0.01 {
		t.Fatalf("same-node transfer took %v, want ~0", done)
	}
}

func TestFetchCrossRackFraction(t *testing.T) {
	eng, c := newTestCluster(t)
	dst := c.Nodes[0]
	var done float64
	// 117 MB fully rack-local: exactly 1 s on the NIC.
	c.Fetch(dst, 117, 0, 0, func() { done = eng.Now() })
	eng.Run()
	if !almostEqual(done, 1, 1e-6) {
		t.Fatalf("local fetch finished at %v, want 1", done)
	}
	// Fetch with cross-rack component completes no faster.
	start := eng.Now()
	var done2 float64
	c.Fetch(dst, 117, 0.5, 0, func() { done2 = eng.Now() })
	eng.Run()
	if done2-start < 1-1e-6 {
		t.Fatalf("cross-rack fetch finished too fast: %v", done2-start)
	}
}

func TestDiskReadWriteShareChannel(t *testing.T) {
	eng, c := newTestCluster(t)
	n := c.Nodes[0]
	var tR, tW float64
	n.DiskRead(90, func() { tR = eng.Now() })
	n.DiskWrite(90, func() { tW = eng.Now() })
	eng.Run()
	// Shared 45/45: both finish at 2s.
	if !almostEqual(tR, 2, 1e-6) || !almostEqual(tW, 2, 1e-6) {
		t.Fatalf("read/write finished at %v/%v, want 2/2", tR, tW)
	}
}

func TestNodeUtilizationAccounting(t *testing.T) {
	eng, c := newTestCluster(t)
	n := c.Nodes[0]
	n.Compute(8, 8, nil) // full node for 1s
	eng.Run()
	eng.RunUntil(4)
	if u := n.CPUUtilization(4); !almostEqual(u, 0.25, 1e-6) {
		t.Fatalf("cpu utilization = %v, want 0.25", u)
	}
	n.DiskWrite(90, nil)
	eng.Run()
	if u := n.DiskUtilization(5); u <= 0.15 || u >= 0.25 {
		t.Fatalf("disk utilization = %v, want ~0.2", u)
	}
}

func TestHeterogeneousCluster(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, HeterogeneousPaperConfig())
	if len(c.Nodes) != 18 {
		t.Fatalf("nodes = %d, want 18", len(c.Nodes))
	}
	big, small := 0, 0
	for _, n := range c.Nodes {
		switch n.Cores {
		case 8:
			big++
			if n.Mem.Capacity != 6*1024 || n.VCores != 28 {
				t.Fatalf("big node misconfigured: %+v", n)
			}
		case 4:
			small++
			if n.Mem.Capacity != 3*1024 || n.VCores != 16 {
				t.Fatalf("small node misconfigured: %+v", n)
			}
		default:
			t.Fatalf("unexpected core count %v", n.Cores)
		}
	}
	if big != 12 || small != 6 {
		t.Fatalf("classes = %d big / %d small, want 12/6", big, small)
	}
	// Both racks populated (round-robin spread).
	if len(c.Racks[0]) == 0 || len(c.Racks[1]) == 0 {
		t.Fatal("a rack is empty")
	}
	if len(c.Racks[0])+len(c.Racks[1]) != 18 {
		t.Fatal("racks do not partition the nodes")
	}
	// Core ratios differ per node class.
	var r8, r4 float64
	for _, n := range c.Nodes {
		if n.Cores == 8 {
			r8 = n.CoreRatio()
		} else {
			r4 = n.CoreRatio()
		}
	}
	if r8 == r4 {
		t.Fatal("core ratios identical across classes")
	}
}

func TestInvalidNodeClassPanics(t *testing.T) {
	cfg := PaperConfig()
	cfg.Classes = []NodeClass{{Count: 1}}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid class accepted")
		}
	}()
	New(sim.NewEngine(), cfg)
}
