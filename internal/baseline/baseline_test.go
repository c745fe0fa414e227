package baseline

import (
	"math"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/mrconf"
	"repro/internal/sim"
)

func profileWith(mapRaw, redIn float64) ProfileStats {
	return ProfileStats{
		MapOutputMBPerTask:   mapRaw,
		ReduceInputMBPerTask: redIn,
		MapWorkingSetMB:      80,
		ReduceWorkingSetMB:   150,
	}
}

func TestOfflineGuideSizesSortBuffer(t *testing.T) {
	cfg := OfflineGuide(profileWith(140, 500))
	if cfg.SortMB() < 140 {
		t.Fatalf("io.sort.mb = %v, want >= raw map output 140", cfg.SortMB())
	}
	if cfg.SpillPct() != 0.99 {
		t.Fatalf("spill.percent = %v, want 0.99 when the buffer fits", cfg.SpillPct())
	}
	if cfg.SortMB() > cfg.MapHeapMB() {
		t.Fatal("guide violated the sort-buffer/heap dependency")
	}
}

func TestOfflineGuideReduceBuffers(t *testing.T) {
	cfg := OfflineGuide(profileWith(140, 500))
	heap := cfg.ReduceHeapMB()
	if heap < 500 {
		t.Fatalf("reduce heap %v too small for 500 MB input", heap)
	}
	if cfg.ShuffleBufferPct()*heap < 400 {
		t.Fatalf("shuffle buffer %v MB too small", cfg.ShuffleBufferPct()*heap)
	}
	if cfg.InmemThreshold() != 0 {
		t.Fatal("inmem threshold should be disabled")
	}
	if err := mrconf.Validate(cfg); err != nil {
		t.Fatalf("guide config invalid: %v", err)
	}
}

func TestOfflineGuideShuffleHeavy(t *testing.T) {
	p := profileWith(140, 500)
	p.ShuffleHeavy = true
	if OfflineGuide(p).ParallelCopies() <= mrconf.Default().ParallelCopies() {
		t.Fatal("shuffle-heavy profile should raise parallelcopies")
	}
}

func TestOfflineGuideCPUBound(t *testing.T) {
	p := profileWith(10, 10)
	p.MapCPUBound = true
	if OfflineGuide(p).MapVcores() <= 1 {
		t.Fatal("CPU-bound profile should raise map vcores")
	}
}

func TestProfileFromResult(t *testing.T) {
	res := mapreduce.Result{
		Reports: []mapreduce.TaskReport{
			{Type: mapreduce.MapTask, Config: mrconf.Default(), DataMB: 100, RawOutputMB: 160, MemUtil: 0.4, CPUUtil: 0.95},
			{Type: mapreduce.MapTask, Config: mrconf.Default(), DataMB: 120, RawOutputMB: 200, MemUtil: 0.4, CPUUtil: 0.95},
			{Type: mapreduce.ReduceTask, Config: mrconf.Default(), DataMB: 500, MemUtil: 0.5},
			{Type: mapreduce.MapTask, Config: mrconf.Default(), DataMB: 999, RawOutputMB: 999, OOM: true},
		},
	}
	p := ProfileFromResult(res)
	if math.Abs(p.MapOutputMBPerTask-180) > 1e-9 {
		t.Fatalf("map output = %v, want 180 (OOM report excluded)", p.MapOutputMBPerTask)
	}
	if p.ReduceInputMBPerTask != 500 {
		t.Fatalf("reduce input = %v", p.ReduceInputMBPerTask)
	}
	if !p.MapCPUBound {
		t.Fatal("0.95 mean CPU should classify as CPU-bound")
	}
	if !p.ShuffleHeavy {
		t.Fatal("500 MB per reducer should classify as shuffle-heavy")
	}
}

// A deterministic synthetic objective: distance to a fixed optimum.
func synthEval() (func(mrconf.Config) float64, mrconf.Config) {
	opt := mrconf.Default().
		With(mrconf.IOSortMB, 400).
		With(mrconf.MapMemoryMB, 1536).
		With(mrconf.ShuffleInputBufferPct, 0.8)
	eval := func(c mrconf.Config) float64 {
		sum := 0.0
		for _, p := range mrconf.Params() {
			d := (c.Get(p.ID) - opt.Get(p.ID)) / (p.Max - p.Min)
			sum += d * d
		}
		return sum
	}
	return eval, opt
}

func TestGeneticImprovesOverGenerations(t *testing.T) {
	eval, _ := synthEval()
	ga := NewGenetic(sim.NewSource(1).Stream("ga"))
	ga.Run(eval, 5)
	if ga.Evals < 20 || ga.Evals > 60 {
		t.Fatalf("GA used %d evals for 5 generations of 8", ga.Evals)
	}
	_, best := ga.Best()
	// History must be monotone nonincreasing.
	for i := 1; i < len(ga.History); i++ {
		if ga.History[i] > ga.History[i-1] {
			t.Fatal("GA best-so-far history not monotone")
		}
	}
	if best > ga.History[ga.Population-1] {
		t.Fatal("GA final best worse than initial population best")
	}
}

func TestGeneticTakesManyRunsToConverge(t *testing.T) {
	// The §7 claim: a Gunther-style GA needs tens of test runs. On the
	// synthetic objective, reaching within 5% of its final best must
	// take well over one evaluation.
	eval, _ := synthEval()
	ga := NewGenetic(sim.NewSource(2).Stream("ga"))
	ga.Run(eval, 4)
	_, final := ga.Best()
	runs := len(ga.History)
	for i, c := range ga.History {
		if c <= final*1.05 {
			runs = i + 1
			break
		}
	}
	if runs < 5 {
		t.Fatalf("GA converged in %d runs; expected tens", runs)
	}
}

func TestGeneticConfigsAlwaysValid(t *testing.T) {
	checked := 0
	eval := func(c mrconf.Config) float64 {
		if err := mrconf.Validate(c); err != nil {
			t.Fatalf("GA produced invalid config: %v", err)
		}
		checked++
		return 1
	}
	NewGenetic(sim.NewSource(3).Stream("ga")).Run(eval, 3)
	if checked == 0 {
		t.Fatal("eval never called")
	}
}
