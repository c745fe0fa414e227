package mapreduce

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hdfs"
	"repro/internal/mrconf"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/yarn"
)

// rig bundles a fresh simulated cluster for one job run.
type rig struct {
	eng *sim.Engine
	c   *cluster.Cluster
	rm  *yarn.ResourceManager
	fs  *hdfs.FileSystem
}

func newRig() *rig {
	eng := sim.NewEngine()
	eng.MaxEvents = 50_000_000
	c := cluster.New(eng, cluster.PaperConfig())
	rm := yarn.NewResourceManager(eng, c, yarn.FIFOScheduler{})
	fs := hdfs.New(c, sim.NewSource(42).Stream("hdfs"))
	return &rig{eng: eng, c: c, rm: rm, fs: fs}
}

// run executes one job to completion and returns its result.
func (r *rig) run(t *testing.T, spec Spec) Result {
	t.Helper()
	_, res := r.runJob(t, spec)
	return res
}

// runJob is run that also returns the job.
func (r *rig) runJob(t *testing.T, spec Spec) (*Job, Result) {
	t.Helper()
	var res Result
	got := false
	j := Submit(r.rm, r.fs, spec, func(rr Result) { res = rr; got = true })
	r.eng.Run()
	if !got {
		t.Fatalf("job %q never completed (deadlock?): pending events drained", spec.Name)
	}
	return j, res
}

func smallTerasort() workload.Benchmark { return workload.Terasort(10, 0, 0) }

func TestTerasortCompletes(t *testing.T) {
	r := newRig()
	res := r.run(t, Spec{Benchmark: smallTerasort(), BaseConfig: mrconf.Default()})
	if res.Failed {
		t.Fatalf("job failed: %v", res.Err)
	}
	if res.Duration <= 0 {
		t.Fatal("non-positive duration")
	}
	b := smallTerasort()
	if got := len(res.Reports); got != b.NumMaps+b.NumReduces {
		t.Fatalf("reports = %d, want %d", got, b.NumMaps+b.NumReduces)
	}
	// Submit presizes the report list: a clean run never regrows it.
	if got := cap(res.Reports); got != b.NumMaps+b.NumReduces {
		t.Fatalf("report capacity = %d, want exactly %d (presized at submission)", got, b.NumMaps+b.NumReduces)
	}
}

func TestDataVolumeConservation(t *testing.T) {
	r := newRig()
	b := smallTerasort()
	res := r.run(t, Spec{Benchmark: b, BaseConfig: mrconf.Default()})
	// Map output ≈ shuffle size (modulo skew averaging), reduce input
	// equals map output, job output ≈ reduce input for terasort.
	if math.Abs(res.Counters.MapOutputMB-b.ShuffleSizeMB)/b.ShuffleSizeMB > 0.1 {
		t.Errorf("map output %v far from table shuffle %v", res.Counters.MapOutputMB, b.ShuffleSizeMB)
	}
	if math.Abs(res.Counters.ReduceInputMB-res.Counters.MapOutputMB) > 1e-6*res.Counters.MapOutputMB {
		t.Errorf("reduce input %v != map output %v", res.Counters.ReduceInputMB, res.Counters.MapOutputMB)
	}
	if math.Abs(res.Counters.OutputMB-res.Counters.ReduceInputMB) > 1e-6*res.Counters.ReduceInputMB {
		t.Errorf("terasort output %v != reduce input %v", res.Counters.OutputMB, res.Counters.ReduceInputMB)
	}
}

func TestDefaultConfigSpillsRoughlyTripleOptimal(t *testing.T) {
	// Terasort with the default 100 MB sort buffer spills each ~136 MB
	// map output twice and rewrites it in the merge, and the reduce
	// side (input.buffer.percent=0) writes everything to disk once:
	// total spilled records land between 2x and 3.5x the combiner
	// output records (the paper's Fig 7 shows ~3x for default).
	r := newRig()
	res := r.run(t, Spec{Benchmark: smallTerasort(), BaseConfig: mrconf.Default()})
	optimal := res.Counters.CombineOutputRecs
	ratio := res.Counters.SpilledRecords() / optimal
	if ratio < 2 || ratio > 3.6 {
		t.Fatalf("default spill ratio = %.2f, want in [2, 3.6]", ratio)
	}
}

func TestTunedConfigReachesOptimalSpills(t *testing.T) {
	// A large sort buffer (single map spill) plus a reduce buffer that
	// retains everything in memory should bring spills to the optimal:
	// exactly the combiner output records, none on the reduce side.
	r := newRig()
	cfg := mrconf.Default().
		With(mrconf.MapMemoryMB, 2048).
		With(mrconf.IOSortMB, 400).
		With(mrconf.SortSpillPercent, 0.99).
		With(mrconf.ReduceMemoryMB, 2048).
		With(mrconf.ShuffleInputBufferPct, 0.85).
		With(mrconf.ShuffleMemoryLimitPct, 0.5).
		With(mrconf.ReduceInputBufferPct, 0.85)
	res := r.run(t, Spec{Benchmark: smallTerasort(), BaseConfig: cfg})
	if res.Failed {
		t.Fatalf("tuned job failed: %v", res.Err)
	}
	if res.Counters.SpilledRecordsRed != 0 {
		t.Errorf("reduce-side spills = %v, want 0", res.Counters.SpilledRecordsRed)
	}
	ratio := res.Counters.SpilledRecords() / res.Counters.CombineOutputRecs
	if math.Abs(ratio-1) > 1e-6 {
		t.Errorf("tuned spill ratio = %v, want 1 (optimal)", ratio)
	}
}

func TestTunedFasterThanDefault(t *testing.T) {
	b := workload.Terasort(20, 0, 0)
	def := newRig().run(t, Spec{Benchmark: b, BaseConfig: mrconf.Default()})
	cfg := mrconf.Default().
		With(mrconf.MapMemoryMB, 1536).
		With(mrconf.IOSortMB, 240).
		With(mrconf.SortSpillPercent, 0.99).
		With(mrconf.MapCPUVcores, 2).
		With(mrconf.ReduceMemoryMB, 2048).
		With(mrconf.ShuffleInputBufferPct, 0.85).
		With(mrconf.ShuffleMemoryLimitPct, 0.5).
		With(mrconf.ReduceInputBufferPct, 0.85).
		With(mrconf.ReduceCPUVcores, 2).
		With(mrconf.ShuffleParallelCopies, 20)
	tuned := newRig().run(t, Spec{Benchmark: b, BaseConfig: cfg})
	if tuned.Duration >= def.Duration {
		t.Fatalf("tuned (%.0fs) not faster than default (%.0fs)", tuned.Duration, def.Duration)
	}
}

func TestOOMRetryWithLargerContainer(t *testing.T) {
	// io.sort.mb close to the heap leaves no room for the working set:
	// first attempts OOM; a controller that reacts by growing the
	// container lets the job finish.
	base := mrconf.Default().With(mrconf.IOSortMB, 760) // heap 819, working set ~50 -> OOM
	b := workload.Terasort(2, 0, 0)
	ctrl := &growOnOOM{}
	r := newRig()
	res := r.run(t, Spec{Benchmark: b, BaseConfig: base, Controller: ctrl, Name: "oomjob"})
	if res.Failed {
		t.Fatalf("job failed despite adaptive controller: %v", res.Err)
	}
	if res.Counters.OOMKills == 0 {
		t.Fatal("expected at least one OOM kill")
	}
}

// growOnOOM bumps map memory once a task has failed.
type growOnOOM struct{ PassthroughController }

func (g *growOnOOM) TaskConfig(t *Task, base mrconf.Config) mrconf.Config {
	if t.Attempt > 0 {
		return base.With(mrconf.MapMemoryMB, 2048)
	}
	return base
}

func TestOOMExhaustsAttempts(t *testing.T) {
	base := mrconf.Default().With(mrconf.IOSortMB, 800).With(mrconf.MapMemoryMB, 1024)
	b := workload.Terasort(2, 0, 0)
	r := newRig()
	res := r.run(t, Spec{Benchmark: b, BaseConfig: base, MaxAttempts: 2})
	if !res.Failed {
		t.Fatal("job should have failed after exhausting attempts")
	}
	if res.Err == nil {
		t.Fatal("failed job carries no error")
	}
}

func TestPerTaskConfigsApplied(t *testing.T) {
	// Give even map tasks 2 vcores and odd ones 1; verify reports echo
	// the per-task configs (the paper's core framework capability).
	ctrl := &alternatingVcores{}
	r := newRig()
	res := r.run(t, Spec{Benchmark: workload.Terasort(2, 0, 0), BaseConfig: mrconf.Default(), Controller: ctrl})
	if res.Failed {
		t.Fatal(res.Err)
	}
	checked := 0
	for _, rep := range res.Reports {
		if rep.Type != MapTask {
			continue
		}
		want := 1
		if rep.ID%2 == 0 {
			want = 2
		}
		if rep.Config.MapVcores() != want {
			t.Fatalf("map %d ran with %d vcores, want %d", rep.ID, rep.Config.MapVcores(), want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no map reports")
	}
}

type alternatingVcores struct{ PassthroughController }

func (alternatingVcores) TaskConfig(t *Task, base mrconf.Config) mrconf.Config {
	if t.Type == MapTask && t.ID%2 == 0 {
		return base.With(mrconf.MapCPUVcores, 2)
	}
	return base
}

func TestLaunchGateHoldsWave(t *testing.T) {
	// A controller that only ever allows the first 4 map tasks: the
	// job cannot finish, but exactly 4 maps must have run when we stop.
	ctrl := &gateFirstN{n: 4}
	r := newRig()
	b := workload.Terasort(2, 0, 0)
	Submit(r.rm, r.fs, Spec{Benchmark: b, BaseConfig: mrconf.Default(), Controller: ctrl}, func(Result) {})
	r.eng.RunUntil(500)
	if got := ctrl.completed; got != 4 {
		t.Fatalf("completed %d maps under launch gate, want 4", got)
	}
}

type gateFirstN struct {
	PassthroughController
	n         int
	completed int
}

func (g *gateFirstN) AllowLaunch(t *Task) bool {
	if t.Type == ReduceTask {
		return false
	}
	return t.ID < g.n
}

func (g *gateFirstN) TaskCompleted(r TaskReport) {
	if r.Type == MapTask && !r.OOM {
		g.completed++
	}
}

func TestMostMapsNodeLocal(t *testing.T) {
	r := newRig()
	res := r.run(t, Spec{Benchmark: smallTerasort(), BaseConfig: mrconf.Default()})
	c := res.Counters
	total := c.NodeLocalMaps + c.RackLocalMaps + c.OffRackMaps
	if total != smallTerasort().NumMaps {
		t.Fatalf("locality counters %d != maps %d", total, smallTerasort().NumMaps)
	}
	if frac := float64(c.NodeLocalMaps) / float64(total); frac < 0.7 {
		t.Fatalf("node-local fraction = %.2f, want >= 0.7 (delay scheduling)", frac)
	}
}

func TestBBPComputeBound(t *testing.T) {
	r := newRig()
	res := r.run(t, Spec{Benchmark: workload.BBP(500000, 100), BaseConfig: mrconf.Default()})
	if res.Failed {
		t.Fatal(res.Err)
	}
	// One vcore = ~0.29 cores: the fixed 40 core-seconds per map run
	// at the cap, so BBP map CPU utilization should be ~100%.
	if res.MapCPUUtil < 0.9 {
		t.Fatalf("BBP map CPU utilization = %.2f, want ~1 (paper Fig 16)", res.MapCPUUtil)
	}
}

func TestMoreVcoresSpeedUpBBP(t *testing.T) {
	b := workload.BBP(500000, 100)
	slow := newRig().run(t, Spec{Benchmark: b, BaseConfig: mrconf.Default()})
	fast := newRig().run(t, Spec{Benchmark: b, BaseConfig: mrconf.Default().With(mrconf.MapCPUVcores, 4)})
	// With cpu.shares-style soft caps a 1-vcore container still bursts
	// to half a core, so 4 vcores (a full core for single-threaded map
	// code) buys about 2x.
	if fast.Duration >= slow.Duration*0.65 {
		t.Fatalf("4 vcores (%.0fs) should be much faster than 1 (%.0fs) for compute-bound BBP",
			fast.Duration, slow.Duration)
	}
}

func TestDefaultMemoryUnderutilized(t *testing.T) {
	// Paper Fig 15: under the default config memory utilization is
	// below 50%.
	r := newRig()
	res := r.run(t, Spec{Benchmark: smallTerasort(), BaseConfig: mrconf.Default()})
	if res.MapMemUtil >= 0.6 {
		t.Fatalf("default map memory utilization = %.2f, expected underutilization", res.MapMemUtil)
	}
}

func TestSortFactorLimitsMergePasses(t *testing.T) {
	if p := mergePasses(1, 10); p != 0 {
		t.Errorf("mergePasses(1,10) = %d, want 0", p)
	}
	if p := mergePasses(2, 10); p != 1 {
		t.Errorf("mergePasses(2,10) = %d, want 1", p)
	}
	if p := mergePasses(10, 10); p != 1 {
		t.Errorf("mergePasses(10,10) = %d, want 1", p)
	}
	if p := mergePasses(11, 10); p != 2 {
		t.Errorf("mergePasses(11,10) = %d, want 2", p)
	}
	if p := mergePasses(100, 10); p != 2 {
		t.Errorf("mergePasses(100,10) = %d, want 2", p)
	}
	if p := mergePasses(101, 10); p != 3 {
		t.Errorf("mergePasses(101,10) = %d, want 3", p)
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := newRig().run(t, Spec{Benchmark: smallTerasort(), BaseConfig: mrconf.Default()})
	b := newRig().run(t, Spec{Benchmark: smallTerasort(), BaseConfig: mrconf.Default()})
	if a.Duration != b.Duration {
		t.Fatalf("same seed, different durations: %v vs %v", a.Duration, b.Duration)
	}
	if a.Counters.SpilledRecords() != b.Counters.SpilledRecords() {
		t.Fatal("same seed, different counters")
	}
}

func TestWikipediaWordcountCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size benchmark in -short mode")
	}
	b, err := workload.ByName("wordcount/Wikipedia")
	if err != nil {
		t.Fatal(err)
	}
	r := newRig()
	res := r.run(t, Spec{Benchmark: b, BaseConfig: mrconf.Default()})
	if res.Failed {
		t.Fatal(res.Err)
	}
	if res.Counters.MapInputMB < b.InputSizeMB*0.99 {
		t.Fatalf("map input %v, want %v", res.Counters.MapInputMB, b.InputSizeMB)
	}
}

func TestCountersSummary(t *testing.T) {
	r := newRig()
	res := r.run(t, Spec{Benchmark: workload.Terasort(2, 0, 0), BaseConfig: mrconf.Default()})
	s := res.Counters.Summary()
	for _, want := range []string{"Map input MB=2048", "Spilled records", "Data-local maps"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "OOM kills") {
		t.Fatal("clean run mentions OOM kills")
	}
}

func TestJobAccessors(t *testing.T) {
	r := newRig()
	b := workload.Terasort(2, 0, 0)
	j := Submit(r.rm, r.fs, Spec{Benchmark: b, BaseConfig: mrconf.Default().With(mrconf.IOSortMB, 200)}, nil)
	if j.Benchmark().Name != b.Name {
		t.Fatal("Benchmark accessor wrong")
	}
	if j.BaseConfig().SortMB() != 200 {
		t.Fatal("BaseConfig accessor wrong")
	}
	if j.Engine() != r.eng {
		t.Fatal("Engine accessor wrong")
	}
	if len(j.MapTasks()) != b.NumMaps || len(j.ReduceTasks()) != b.NumReduces {
		t.Fatal("task accessors wrong")
	}
	r.eng.Run()
	if j.CompletedMaps() != b.NumMaps || j.CompletedReduces() != b.NumReduces {
		t.Fatalf("completion accessors: %d/%d", j.CompletedMaps(), j.CompletedReduces())
	}
}
