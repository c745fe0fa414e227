package cluster

import (
	"strings"
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
	p := NewMemPool("m", 1000)
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
	p := NewMemPool("m", 1000)
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

// TestMemPoolUtilization checks that the pool's level is what its
// allocations hold right now, and that a release overshooting by a
// rounding error leaves it at zero, not below.
func TestMemPoolUtilization(t *testing.T) {
	p := NewMemPool("m", 1000)
	if err := p.Allocate(500); err != nil {
		t.Fatal(err)
	}
	if err := p.Allocate(0.1); err != nil {
		t.Fatal(err)
	}
	p.Release(200)
	if u := p.Used() / p.Capacity; !almostEqual(u, 0.3001, 1e-12) {
		t.Fatalf("utilization = %v, want 0.3001", u)
	}
	p.Release(300.1 + 1e-7)
	if p.Used() != 0 || p.Free() != p.Capacity {
		t.Fatalf("after releasing everything: used %v, free %v", p.Used(), p.Free())
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

	// A one-rack cluster has an uplink too, and the cross-rack share
	// crosses it: at 10 MB/s the 58.5 MB cross part outlasts the local
	// part and takes 5.85 s, where the NIC alone would take 1 s.
	cfg := PaperConfig()
	cfg.RackSizes = []int{9}
	cfg.UplinkMBps = 10
	eng = sim.NewEngine()
	one := New(eng, cfg)
	var done3 float64
	one.Fetch(one.Nodes[0], 117, 0.5, 0, func() { done3 = eng.Now() })
	eng.Run()
	if !almostEqual(done3, 5.85, 1e-6) {
		t.Fatalf("one-rack cross-rack fetch finished at %v, want 5.85 (slowed by the uplink)", done3)
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

// TestNodeUtilizationAccounting churns a node's CPU and disk and checks
// after every change that each one-link fabric lists its flows in the
// link's membership order, so CPULoad and DiskLoad sum the rates in
// fabric order, and that a drained node reads zero load.
func TestNodeUtilizationAccounting(t *testing.T) {
	eng, c := newTestCluster(t)
	n := c.Nodes[0]
	check := func(when string) {
		t.Helper()
		for _, fb := range []*Fabric{&n.cpu, &n.disk} {
			l := fb.links[0]
			if len(l.flows) != len(fb.flows) {
				t.Fatalf("%s: %s link holds %d flows, fabric %d", when, fb.Name(), len(l.flows), len(fb.flows))
			}
			sum := 0.0
			for i, f := range fb.flows {
				if l.flows[i] != f {
					t.Fatalf("%s: %s flow %d is not the link's flow %d", when, fb.Name(), i, i)
				}
				sum += f.rate
			}
			if got := l.CurrentRate(); got != sum {
				t.Fatalf("%s: %s rate %v, want %v", when, fb.Name(), got, sum)
			}
		}
	}
	var flows []*Flow
	for i := 0; i < 12; i++ {
		flows = append(flows,
			n.Compute(float64(1+i%5), float64(1+i%3), func() { check("cpu completion") }),
			n.DiskWrite(float64(10+7*i), func() { check("disk completion") }))
		check("start")
	}
	for _, i := range []int{3, 0, 22, 9} {
		n.CancelFlow(flows[i])
		check("cancel")
	}
	eng.Run()
	if n.CPULoad() != 0 || n.DiskLoad() != 0 {
		t.Fatalf("drained node reads cpu %v, disk %v", n.CPULoad(), n.DiskLoad())
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

// panicsWith runs fn and fails unless it panics with a message that
// contains want.
func panicsWith(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want a message containing %q", r, want)
		}
	}()
	fn()
}

// TestInvalidNodeClassPanics: New validates the whole config before it
// sizes the node array, so a bad class or rack panics with its own
// message, never with a runtime makeslice panic on a negative total.
func TestInvalidNodeClassPanics(t *testing.T) {
	valid := NodeClass{Count: 2, Cores: 8, VCores: 28, ContainerMemMB: 6 * 1024, DiskMBps: 90, NICMBps: 117}
	for _, tc := range []struct {
		name string
		edit func(*Config)
		want string
	}{
		{"zero class", func(c *Config) { c.Classes = []NodeClass{{Count: 1}} }, "cluster: invalid node class"},
		{"negative count", func(c *Config) {
			bad := valid
			bad.Count = -5
			c.Classes = []NodeClass{valid, bad}
		}, "cluster: invalid node class {Count:-5 "},
		{"negative rack", func(c *Config) { c.RackSizes = []int{9, -1} }, "cluster: rack 1 has negative size -1"},
		{"no rack", func(c *Config) { c.RackSizes = nil }, "cluster: config needs at least one rack"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := PaperConfig()
			tc.edit(&cfg)
			panicsWith(t, tc.want, func() { New(sim.NewEngine(), cfg) })
		})
	}
}

// TestNewAllocationsPerNode pins the node layout: a node's memory
// pool, fabrics and links live inside it and all nodes share one
// array, so a cluster's allocations barely grow with its node count.
func TestNewAllocationsPerNode(t *testing.T) {
	allocs := func(racks int) float64 {
		cfg := PaperConfig()
		cfg.RackSizes = make([]int, racks)
		for r := range cfg.RackSizes {
			cfg.RackSizes[r] = 32
		}
		eng := sim.NewEngine()
		return testing.AllocsPerRun(5, func() { New(eng, cfg) })
	}
	small, large := allocs(4), allocs(16)
	if per := (large - small) / (16*32 - 4*32); per > 2 {
		t.Errorf("New makes %.2f allocations per added node (%v at 4×32, %v at 16×32), want ≤ 2", per, small, large)
	}
}

// TestTopologyNames: the topology stores no names, yet every pool,
// fabric and link still reports its role's name, and the errors and
// panics that print one still do.
func TestTopologyNames(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"paper", PaperConfig()},
		{"heterogeneous", HeterogeneousPaperConfig()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			c := New(eng, tc.cfg)
			n := c.Nodes[3]
			for _, nm := range []struct{ got, want string }{
				{n.Name, "node03"},
				{c.Nodes[17].Name, "node17"},
				{n.Mem.Name(), "node03/mem"},
				{n.cpu.Name(), "node03/cpu"},
				{n.cpuLink.Name(), "node03/cpu"},
				{n.disk.Name(), "node03/disk"},
				{n.diskLink.Name(), "node03/disk"},
				{n.NICIn.Name(), "node03/nic-in"},
				{n.NICOut.Name(), "node03/nic-out"},
				{c.uplinks[1].Name(), "rack1/uplink"},
				{c.NetworkFabric().Name(), "network"},
			} {
				if nm.got != nm.want {
					t.Errorf("name %q, want %q", nm.got, nm.want)
				}
			}
			err := n.Mem.Allocate(2 * n.Mem.Capacity)
			if want := "cluster: node03/mem out of memory"; err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("over-allocation error %v, want one containing %q", err, want)
			}
			panicsWith(t, `cluster: link "node03/disk" does not belong to fabric "network"`, func() {
				c.NetworkFabric().Start([]*Link{&n.diskLink}, 1, 0, nil)
			})
			panicsWith(t, `cluster: link "rack1/uplink" does not belong to fabric "node03/cpu"`, func() {
				n.cpu.Start([]*Link{c.uplinks[1]}, 1, 0, nil)
			})
		})
	}
	t.Run("standalone", func(t *testing.T) {
		eng := sim.NewEngine()
		fb := NewFabric(eng, "bus")
		l := fb.AddLink("lane", 10)
		p := NewMemPool("heap", 10)
		if fb.Name() != "bus" || l.Name() != "lane" || p.Name() != "heap" {
			t.Errorf("names %q %q %q, want bus lane heap", fb.Name(), l.Name(), p.Name())
		}
		panicsWith(t, `cluster: link "" does not belong to fabric "bus"`, func() { fb.Start([]*Link{{Capacity: 1}}, 1, 0, nil) })
		panicsWith(t, `cluster: link "gone" must have positive capacity`, func() { fb.AddLink("gone", 0) })
		panicsWith(t, `cluster: mem pool "dry" must have positive capacity`, func() { NewMemPool("dry", 0) })
	})
}
