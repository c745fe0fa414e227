package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/metrics"
	"repro/internal/mrconf"
	"repro/internal/tuner"
)

// reportFor builds a synthetic task report.
func reportFor(memUtil, cpuUtil, spilled, output, dur float64, oom bool) mapreduce.TaskReport {
	return mapreduce.TaskReport{
		JobName: "j", Type: mapreduce.MapTask, Config: mrconf.Default(),
		Start: 0, End: dur,
		MemUtil: memUtil, CPUUtil: cpuUtil,
		SpilledRecords: spilled, OutputRecords: output,
		OOM: oom,
	}
}

func mapReport(id int, cfg mrconf.Config, dataMB, rawMB, dur, memU, cpuU float64) mapreduce.TaskReport {
	return mapreduce.TaskReport{
		JobName: "j", Type: mapreduce.MapTask, ID: id, Config: cfg,
		Start: 0, End: dur, MemUtil: memU, CPUUtil: cpuU,
		DataMB: dataMB, RawOutputMB: rawMB,
		SpilledRecords: dataMB / 100e-6, OutputRecords: dataMB / 100e-6,
	}
}

func TestMonitorEstimates(t *testing.T) {
	m := NewMonitor(100, 10)
	for i := 0; i < 5; i++ {
		m.Observe(mapReport(i, mrconf.Default(), 100, 150, 10, 0.5, 0.5))
	}
	est, ok := m.EstMapOutputMB()
	if !ok || est != 100 {
		t.Fatalf("EstMapOutputMB = %v/%v", est, ok)
	}
	raw, ok := m.EstMapRawOutputMB()
	if !ok || raw != 150 {
		t.Fatalf("EstMapRawOutputMB = %v/%v", raw, ok)
	}
	// Reduce input estimate: 100 MB * 100 maps / 10 reducers = 1000.
	rin, ok := m.EstReduceInputMB()
	if !ok || rin != 1000 {
		t.Fatalf("EstReduceInputMB = %v/%v", rin, ok)
	}
	if m.TMax(mapreduce.MapTask) != 10 {
		t.Fatalf("TMax = %v", m.TMax(mapreduce.MapTask))
	}
}

func TestMonitorIgnoresOOMForEstimates(t *testing.T) {
	m := NewMonitor(10, 2)
	r := mapReport(0, mrconf.Default(), 100, 150, 10, 0.5, 0.5)
	r.OOM = true
	m.Observe(r)
	if _, ok := m.EstMapOutputMB(); ok {
		t.Fatal("OOM report contributed to estimates")
	}
	// But TMax still tracks it (it occupied the cluster that long).
	if m.TMax(mapreduce.MapTask) != 10 {
		t.Fatal("OOM report should still update TMax")
	}
}

func TestAggressiveTunerAssignsDistinctConfigs(t *testing.T) {
	tn := NewTuner("j", 100, 10, mrconf.Default(), TunerOptions{Strategy: Aggressive, Seed: 1})
	seen := map[string]bool{}
	job := &mapreduce.Job{}
	_ = job
	distinct := 0
	for i := 0; i < 10; i++ {
		task := &mapreduce.Task{Type: mapreduce.MapTask, ID: i}
		if !tn.AllowLaunch(task) {
			t.Fatalf("launch of task %d not allowed during first wave", i)
		}
		cfg := tn.TaskConfig(task, mrconf.Default())
		key := cfg.String()
		if !seen[key] {
			seen[key] = true
			distinct++
		}
	}
	if distinct < 8 {
		t.Fatalf("only %d distinct configs over 10 tasks; LHS should spread", distinct)
	}
}

func TestAggressiveTunerIdempotentForDeferredTask(t *testing.T) {
	tn := NewTuner("j", 100, 10, mrconf.Default(), TunerOptions{Strategy: Aggressive, Seed: 1})
	task := &mapreduce.Task{Type: mapreduce.ReduceTask, ID: 3}
	c1 := tn.TaskConfig(task, mrconf.Default())
	c2 := tn.TaskConfig(task, mrconf.Default())
	if !c1.Equal(c2) {
		t.Fatalf("re-asking for a deferred task changed its config:\n%s\nvs\n%s", c1, c2)
	}
	if !tn.AllowLaunch(task) {
		t.Fatal("task holding an assignment must be allowed to launch")
	}
}

func TestAggressiveGateClosesWhenWaveAssigned(t *testing.T) {
	tn := NewTuner("j", 1000, 10, mrconf.Default(), TunerOptions{Strategy: Aggressive, Seed: 1})
	i := 0
	for ; i < 100; i++ {
		task := &mapreduce.Task{Type: mapreduce.MapTask, ID: i}
		if !tn.AllowLaunch(task) {
			break
		}
		tn.TaskConfig(task, mrconf.Default())
	}
	want := tuner.DefaultSearchParams().M + 1 // LHS wave plus the default seed
	if i != want {
		t.Fatalf("gate closed after %d tasks, want %d", i, want)
	}
}

func TestAggressiveRetryFallsBackToBase(t *testing.T) {
	base := mrconf.Default().With(mrconf.IOSortMB, 150)
	tn := NewTuner("j", 100, 10, base, TunerOptions{Strategy: Aggressive, Seed: 1})
	task := &mapreduce.Task{Type: mapreduce.MapTask, ID: 0, Attempt: 2}
	cfg := tn.TaskConfig(task, base)
	if !cfg.Equal(base) {
		t.Fatalf("attempt>=2 config = %s, want base", cfg)
	}
}

func TestConservativeRulesKickInAfterWave(t *testing.T) {
	tn := NewTuner("j", 100, 10, mrconf.Default(), TunerOptions{Strategy: Conservative, Seed: 1})
	// Before any reports: defaults.
	task := &mapreduce.Task{Type: mapreduce.MapTask, ID: 0}
	cfg := tn.TaskConfig(task, mrconf.Default())
	if cfg.SortMB() != 100 {
		t.Fatalf("pre-stats conservative config changed io.sort.mb to %v", cfg.SortMB())
	}
	// Feed a wave of reports: map raw output 180 MB, low mem util.
	for i := 0; i < 6; i++ {
		tn.TaskCompleted(mapReport(i, mrconf.Default(), 120, 180, 10, 0.37, 0.3))
	}
	cfg = tn.TaskConfig(task, mrconf.Default())
	if cfg.SortMB() < 180 {
		t.Fatalf("conservative io.sort.mb = %v, want >= raw output 180", cfg.SortMB())
	}
	if cfg.SpillPct() != 0.99 {
		t.Fatalf("spill.percent = %v, want 0.99 once the buffer fits", cfg.SpillPct())
	}
	// Memory is sized to fit the new buffer.
	if cfg.MapHeapMB() < mapreduce.JVMBaseMB+cfg.SortMB() {
		t.Fatalf("map heap %v cannot hold base+buffer %v",
			cfg.MapHeapMB(), mapreduce.JVMBaseMB+cfg.SortMB())
	}
}

func TestConservativeVcoreEscalation(t *testing.T) {
	tn := NewTuner("j", 1000, 10, mrconf.Default(), TunerOptions{Strategy: Conservative, Seed: 1})
	task := &mapreduce.Task{Type: mapreduce.MapTask, ID: 0}
	// Saturated CPU and improving durations: vcores should escalate.
	dur := 40.0
	for wave := 0; wave < 4; wave++ {
		for i := 0; i < 6; i++ {
			tn.TaskCompleted(mapReport(wave*6+i, tn.TaskConfig(task, mrconf.Default()), 50, 50, dur, 0.5, 0.98))
		}
		dur *= 0.7 // keeps improving
	}
	cfg := tn.TaskConfig(task, mrconf.Default())
	if cfg.MapVcores() < 2 {
		t.Fatalf("vcores = %d after sustained CPU saturation, want >= 2", cfg.MapVcores())
	}
}

func TestConservativeVcoreStopsWhenNotImproving(t *testing.T) {
	tn := NewTuner("j", 1000, 10, mrconf.Default(), TunerOptions{Strategy: Conservative, Seed: 1})
	task := &mapreduce.Task{Type: mapreduce.MapTask, ID: 0}
	for wave := 0; wave < 6; wave++ {
		for i := 0; i < 6; i++ {
			// Saturated but duration never improves.
			tn.TaskCompleted(mapReport(wave*6+i, tn.TaskConfig(task, mrconf.Default()), 50, 50, 40, 0.5, 0.98))
		}
	}
	cfg := tn.TaskConfig(task, mrconf.Default())
	if cfg.MapVcores() > 2 {
		t.Fatalf("vcores = %d kept escalating without improvement", cfg.MapVcores())
	}
}

func TestMaterializeReduceRulesRespectHeap(t *testing.T) {
	tn := NewTuner("j", 100, 10, mrconf.Default(), TunerOptions{Strategy: Aggressive, Seed: 1})
	// Feed map reports so the reduce-input estimate exists and is large.
	for i := 0; i < 5; i++ {
		tn.TaskCompleted(mapReport(i, mrconf.Default(), 80, 80, 10, 0.5, 0.5))
	}
	cfg := tn.materialize(mrconf.Default(), mapreduce.ReduceTask)
	heap := cfg.ReduceHeapMB()
	// JVM base + shuffle buffer must fit in the heap with working-set
	// reserve to spare.
	if mapreduce.JVMBaseMB+cfg.ShuffleBufferPct()*heap > heap {
		t.Fatalf("materialized shuffle buffer %v overflows heap %v",
			cfg.ShuffleBufferPct()*heap, heap)
	}
	if cfg.InmemThreshold() != 0 {
		t.Fatalf("inmem threshold = %d, want 0 (rule §6.2)", cfg.InmemThreshold())
	}
	if err := mrconf.Validate(cfg); err != nil {
		t.Fatalf("materialized config invalid: %v", err)
	}
}

// A reduce materialization with a reduce-input estimate builds its
// config with one copy, and applies its four rule values exactly as
// setting them one at a time does.
func TestMaterializeReduceAllocs(t *testing.T) {
	tn := NewTuner("j", 100, 10, mrconf.Default(), TunerOptions{Strategy: Aggressive, Seed: 1})
	for i := 0; i < 5; i++ {
		tn.TaskCompleted(mapReport(i, mrconf.Default(), 80, 80, 10, 0.5, 0.5))
	}
	est, ok := tn.mon.EstReduceInputMB()
	if !ok {
		t.Fatal("no reduce-input estimate after five map reports")
	}
	base := mrconf.Default().With(mrconf.ReduceMemoryMB, 2048)
	var cfg mrconf.Config
	if a := testing.AllocsPerRun(100, func() { cfg = tn.materialize(base, mapreduce.ReduceTask) }); a > 1 {
		t.Errorf("reduce materialization allocates %v times, want at most 1", a)
	}

	// The same rules, one With at a time.
	heap := base.ReduceHeapMB()
	ws := tn.reduceWorkingSetReserve(false)
	want := base.With(mrconf.MergeInmemThreshold, 0)
	sbpMax := (heap - mapreduce.JVMBaseMB - ws) / heap
	want = want.With(mrconf.ShuffleInputBufferPct, metrics.Clamp(est*1.15/heap, 0.2, math.Min(0.9, sbpMax)))
	if sbp := want.ShuffleBufferPct(); sbp*heap >= est {
		want = want.With(mrconf.ReduceInputBufferPct, sbp).With(mrconf.ShuffleMergePct, sbp)
	} else {
		want = want.With(mrconf.ReduceInputBufferPct, math.Max(0, sbp-0.1)).With(mrconf.ShuffleMergePct, math.Max(0.2, sbp-0.04))
	}
	if want = mrconf.Repair(want); !cfg.Equal(want) {
		t.Errorf("materialized %v, want %v", cfg, want)
	}
}

// An explicit override equal to the Table 2 default is still an
// override: it resets a non-default base value.
func TestDefaultValuedOverrideResetsBase(t *testing.T) {
	base := mrconf.Default().With(mrconf.IOSortMB, 400).With(mrconf.MapCPUVcores, 3)
	var o assignment
	o.put(mrconf.IOSortMB, 100)
	o.put(mrconf.MapCPUVcores, 1)
	cfg := o.applyTo(base)
	if cfg.SortMB() != 100 || cfg.MapVcores() != 1 {
		t.Fatalf("default-valued overrides dropped: io.sort.mb=%v vcores=%v, want 100 and 1",
			cfg.SortMB(), cfg.MapVcores())
	}
	if got := (&assignment{}).applyTo(base); !got.Same(base) {
		t.Fatal("an empty assignment did not return the base config")
	}
}

// The §6.2 shuffle-buffer rule's branches: an input that fits is
// retained and merged at the full buffer, one that does not leaves
// headroom, and a working set that crowds out the smallest heap a
// Config can hold pins the buffer at its floor.
func TestSizeShuffleBuffer(t *testing.T) {
	for _, c := range []struct {
		name                     string
		memMB, inputMB, wsMB     float64
		shuffle, retain, mergeAt float64
	}{
		{"input fits", 1024, 300, 150, 0.42, 0.42, 0.42},
		{"input does not fit", 1024, 800, 150, 0.63, 0.53, 0.59},
		{"working set fills the heap", 512, 100, 350, 0.2, 0.1, 0.2},
	} {
		base := mrconf.Default().With(mrconf.ReduceMemoryMB, c.memMB)
		cfg := SizeShuffleBuffer(base, c.inputMB, c.wsMB)
		if cfg.ShuffleBufferPct() != c.shuffle || cfg.ReduceInputBufPct() != c.retain || cfg.MergePct() != c.mergeAt {
			t.Errorf("%s: shuffle=%v retain=%v merge=%v, want %v %v %v", c.name,
				cfg.ShuffleBufferPct(), cfg.ReduceInputBufPct(), cfg.MergePct(), c.shuffle, c.retain, c.mergeAt)
		}
	}
}

func TestBestConfigValidAndRepairable(t *testing.T) {
	tn := NewTuner("j", 100, 10, mrconf.Default(), TunerOptions{Strategy: Aggressive, Seed: 1})
	// Run a full synthetic wave through the tuner.
	tasks := make([]*mapreduce.Task, 0, 30)
	for i := 0; i < 30; i++ {
		task := &mapreduce.Task{Type: mapreduce.MapTask, ID: i}
		if !tn.AllowLaunch(task) {
			break
		}
		cfg := tn.TaskConfig(task, mrconf.Default())
		task.Config = cfg
		tasks = append(tasks, task)
	}
	for i, task := range tasks {
		tn.TaskCompleted(mapReport(task.ID, task.Config, 100, 150, 10+float64(i), 0.6, 0.6))
	}
	best := tn.BestConfig()
	if err := mrconf.Validate(best); err != nil {
		t.Fatalf("BestConfig invalid: %v", err)
	}
}

func TestTunerImplementsController(t *testing.T) {
	var _ mapreduce.Controller = NewTuner("j", 1, 1, mrconf.Default(), TunerOptions{})
}

func TestStrategyString(t *testing.T) {
	if Aggressive.String() != "aggressive" || Conservative.String() != "conservative" {
		t.Fatal("Strategy.String broken")
	}
}

func TestExplainMentionsWhatItLearned(t *testing.T) {
	tn := NewTuner("wordjob", 100, 10, mrconf.Default(), TunerOptions{Strategy: Conservative, Seed: 1})
	// Before any observations: defaults, no crash.
	out := tn.Explain()
	if !strings.Contains(out, "conservative") || !strings.Contains(out, "wordjob") {
		t.Fatalf("explain header wrong:\n%s", out)
	}
	for i := 0; i < 6; i++ {
		tn.TaskCompleted(mapReport(i, mrconf.Default(), 120, 180, 10, 0.37, 0.3))
	}
	out = tn.Explain()
	for _, want := range []string{"180 MB/task raw", "io.sort.mb", "recommended configuration"} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain missing %q:\n%s", want, out)
		}
	}
}

func TestExplainAggressiveShowsSearchState(t *testing.T) {
	tn := NewTuner("j", 100, 10, mrconf.Default(), TunerOptions{Strategy: Aggressive, Seed: 1})
	out := tn.Explain()
	if !strings.Contains(out, "search:") || !strings.Contains(out, "global") {
		t.Fatalf("aggressive explain missing search state:\n%s", out)
	}
}
