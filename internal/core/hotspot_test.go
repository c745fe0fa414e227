package core

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/hdfs"
	"repro/internal/mapreduce"
	"repro/internal/mrconf"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/yarn"
)

func TestHotSpotFilterThresholds(t *testing.T) {
	eng := sim.NewEngine()
	c := cluster.New(eng, cluster.PaperConfig())
	n := c.Nodes[0]
	if !isCold(n) {
		t.Fatal("idle node rejected")
	}
	// Saturate the disk: the node becomes hot.
	for k := 0; k < 4; k++ {
		n.InjectDiskLoad(30, 100, nil)
	}
	eng.RunUntil(0.001)
	if isCold(n) {
		t.Fatal("disk-saturated node accepted")
	}
	// A different node with only CPU saturation is also hot.
	m := c.Nodes[1]
	for k := 0; k < 10; k++ {
		m.InjectCPULoad(1, 100, nil)
	}
	eng.RunUntil(0.002)
	if isCold(m) {
		t.Fatal("CPU-saturated node accepted")
	}
}

func TestEnableHotSpotAvoidanceInstallsFilter(t *testing.T) {
	eng := sim.NewEngine()
	c := cluster.New(eng, cluster.PaperConfig())
	rm := yarn.NewResourceManager(eng, c, yarn.FIFOScheduler{})
	fs := hdfs.New(c, sim.NewSource(1).Stream("hdfs"))
	EnableHotSpotAvoidance(rm, fs)
	if rm.NodeFilter == nil {
		t.Fatal("filter not installed")
	}
	if !rm.NodeFilter(c.Nodes[0]) {
		t.Fatal("installed filter rejects an idle node")
	}
	if rm.HotSpotFallbackDelay != 600 || fs.HotThreshold != 0.85 {
		t.Fatalf("fallback delay %v and HDFS threshold %v, want 600 and 0.85",
			rm.HotSpotFallbackDelay, fs.HotThreshold)
	}
}

// hotSpotRig is a paper cluster with hot-spot avoidance on and no
// scheduling delay.
func hotSpotRig() (*sim.Engine, *cluster.Cluster, *yarn.ResourceManager) {
	eng := sim.NewEngine()
	c := cluster.New(eng, cluster.PaperConfig())
	rm := yarn.NewResourceManager(eng, c, yarn.FIFOScheduler{})
	rm.SchedulingDelay = 0
	EnableHotSpotAvoidance(rm, hdfs.New(c, sim.NewSource(1).Stream("hdfs")))
	return eng, c, rm
}

func TestHotSpotPlacementSkipsHotNodes(t *testing.T) {
	// Saturate the first node; all containers must land elsewhere.
	eng, c, rm := hotSpotRig()
	hot := c.Nodes[0]
	for k := 0; k < 10; k++ {
		hot.InjectDiskLoad(30, 1000, nil)
	}
	app := rm.Submit("job", 1)
	placed := map[string]int{}
	for i := 0; i < 30; i++ {
		app.Request(&yarn.Request{
			Resource:   yarn.Resource{MemMB: 1024, VCores: 1},
			OnAllocate: func(cont *yarn.Container) { placed[cont.Node.Name]++ },
		})
	}
	eng.RunUntil(5)
	if placed[hot.Name] != 0 {
		t.Fatalf("%d containers placed on the hot node", placed[hot.Name])
	}
	total := 0
	for _, n := range placed {
		total += n
	}
	if total != 30 {
		t.Fatalf("placed %d of 30 containers", total)
	}
}

func TestHotSpotFallbackWhenEverythingHot(t *testing.T) {
	// All nodes hot: after the fallback delay, placement proceeds
	// anyway (liveness over placement quality).
	eng, c, rm := hotSpotRig()
	rm.HotSpotFallbackDelay = 10
	for _, n := range c.Nodes {
		for k := 0; k < 10; k++ {
			n.InjectDiskLoad(30, 1000, nil)
		}
	}
	app := rm.Submit("job", 1)
	var at float64 = -1
	app.Request(&yarn.Request{
		Resource:   yarn.Resource{MemMB: 1024, VCores: 1},
		OnAllocate: func(*yarn.Container) { at = eng.Now() },
	})
	eng.RunUntil(60)
	if at < 0 {
		t.Fatal("request starved on an all-hot cluster")
	}
	if at < 10 {
		t.Fatalf("fallback placed at %v, before the %v delay", at, rm.HotSpotFallbackDelay)
	}
}

func TestMonitorAccessors(t *testing.T) {
	m := NewMonitor(10, 2)
	m.Observe(mapReport(0, mrconf.Default(), 100, 150, 10, 0.4, 0.6))
	if m.MeanMemUtil(mapreduce.MapTask) != 0.4 {
		t.Fatalf("MeanMemUtil = %v", m.MeanMemUtil(mapreduce.MapTask))
	}
	if m.MeanCPUUtil(mapreduce.MapTask) != 0.6 {
		t.Fatalf("MeanCPUUtil = %v", m.MeanCPUUtil(mapreduce.MapTask))
	}
	if m.MeanSpillRatio(mapreduce.MapTask) != 1 {
		t.Fatalf("MeanSpillRatio = %v", m.MeanSpillRatio(mapreduce.MapTask))
	}
	if m.MeanDuration(mapreduce.MapTask) != 10 {
		t.Fatalf("MeanDuration = %v", m.MeanDuration(mapreduce.MapTask))
	}
	if m.MeanMemUtil(mapreduce.ReduceTask) != 0 {
		t.Fatal("reduce accessors should be zero with no reports")
	}
	if m.Completed(mapreduce.MapTask) != 1 || m.Completed(mapreduce.ReduceTask) != 0 {
		t.Fatal("attempt counts wrong")
	}
}

func TestTunerAccessors(t *testing.T) {
	tn := NewTuner("j", 10, 2, mrconf.Default(), TunerOptions{Strategy: Aggressive, Seed: 1})
	if tn.Monitor() == nil {
		t.Fatal("nil accessors")
	}
	if got := tn.Backend(); got != "hill" {
		t.Fatalf("default backend = %q, want hill", got)
	}
}

func TestBlackBoxSearchesAllParams(t *testing.T) {
	dims := searchDims(mrconf.ScopeMap, true)
	if len(dims) != 5 {
		t.Fatalf("black-box map dims = %d, want all 5 map-scope params", len(dims))
	}
	dims = searchDims(mrconf.ScopeReduce, true)
	if len(dims) != 8 {
		t.Fatalf("black-box reduce dims = %d, want all 8", len(dims))
	}
}

func TestBlackBoxTunerRunsJob(t *testing.T) {
	b := workload.Terasort(20, 0, 0)
	tn := NewTuner(b.Name, b.NumMaps, b.NumReduces, mrconf.Default(),
		TunerOptions{Strategy: Aggressive, Seed: 5, BlackBox: true})
	res := runJob(t, b, mrconf.Default(), tn)
	if res.Failed {
		t.Fatalf("black-box test run failed: %v", res.Err)
	}
	if err := mrconf.Validate(tn.BestConfig()); err != nil {
		t.Fatalf("black-box best config invalid: %v", err)
	}
}
