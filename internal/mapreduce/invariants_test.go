package mapreduce

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mrconf"
	"repro/internal/workload"
)

// randomValidConfig draws a repaired configuration from the full
// parameter space.
func randomValidConfig(rng *rand.Rand) mrconf.Config {
	c := mrconf.Default()
	for _, p := range mrconf.Params() {
		c = c.With(p.ID, p.Min+rng.Float64()*(p.Max-p.Min))
	}
	return mrconf.Repair(c)
}

// checkInvariants asserts the conservation laws that must hold for any
// job j that completed cleanly with res, whatever the configuration.
// Call it once the engine has drained: every resource the job held is
// back by then, on every node of its cluster.
func checkInvariants(t *testing.T, j *Job, res Result) {
	t.Helper()
	b := j.Benchmark()
	if mem, shadows := j.Held(); mem != 0 || shadows != 0 {
		t.Fatalf("job %s still holds %v MB of reduce headroom and %d speculative copies", j.Name, mem, shadows)
	}
	for _, n := range j.rm.Cluster().Nodes {
		if mem := j.rm.BookedMemMB(n); mem != 0 {
			t.Fatalf("node %s still holds %v MB after job %s", n.Name, mem, j.Name)
		}
	}
	c := res.Counters
	if res.Duration <= 0 {
		t.Fatal("non-positive duration")
	}
	// All input consumed.
	if math.Abs(c.MapInputMB-b.InputSizeMB) > 1e-6*math.Max(1, b.InputSizeMB) {
		t.Fatalf("map input %v != benchmark input %v", c.MapInputMB, b.InputSizeMB)
	}
	// Reduce input equals map output (nothing lost in the shuffle).
	if math.Abs(c.ReduceInputMB-c.MapOutputMB) > 1e-6*math.Max(1, c.MapOutputMB) {
		t.Fatalf("shuffle lost data: in %v out %v", c.ReduceInputMB, c.MapOutputMB)
	}
	// Spills are bounded: at least the combiner output once (map side
	// must write its output), at most ~3x plus the reduce side.
	if c.SpilledRecordsMap < c.CombineOutputRecs*(1-1e-9) {
		t.Fatalf("map spills %v below one pass of %v", c.SpilledRecordsMap, c.CombineOutputRecs)
	}
	maxSpills := c.CombineOutputRecs*3.001 + c.ReduceInputMB/b.Profile.RecordBytes*3.001
	if c.SpilledRecords() > maxSpills {
		t.Fatalf("spills %v exceed 3x bound %v", c.SpilledRecords(), maxSpills)
	}
	// Utilizations are fractions.
	for _, u := range []float64{res.MapCPUUtil, res.MapMemUtil, res.ReduceCPUUtil, res.ReduceMemUtil} {
		if u < 0 || u > 1 {
			t.Fatalf("utilization %v out of [0,1]", u)
		}
	}
	// Task reports are time-consistent: no negative spans, and every
	// task lies within the job's submit..finish window (reports use
	// absolute simulation time, so compare spans, not raw ends).
	minStart, maxEnd := math.Inf(1), 0.0
	for _, r := range res.Reports {
		if r.End < r.Start {
			t.Fatalf("task %v ends before it starts", r)
		}
		if r.Start < minStart {
			minStart = r.Start
		}
		if r.End > maxEnd {
			maxEnd = r.End
		}
	}
	if len(res.Reports) > 0 && maxEnd-minStart > res.Duration+1e-6 {
		t.Fatalf("task span %v exceeds job duration %v", maxEnd-minStart, res.Duration)
	}
}

// TestInvariantsUnderRandomConfigs is the failure-injection sweep: any
// valid configuration — however bad — must yield a consistent run
// (possibly with OOM retries, never a corrupted one).
func TestInvariantsUnderRandomConfigs(t *testing.T) {
	b := workload.Terasort(6, 0, 0)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := randomValidConfig(rng)
		r := newRig()
		var res Result
		got := false
		j := Submit(r.rm, r.fs, Spec{Benchmark: b, BaseConfig: cfg}, func(rr Result) { res = rr; got = true })
		r.eng.Run()
		if !got {
			t.Logf("seed %d config %s: job never completed", seed, cfg)
			return false
		}
		if res.Failed {
			// A config can legitimately fail (hopeless OOM), but then it
			// must carry an error and have recorded the kills.
			return res.Err != nil && res.Counters.OOMKills > 0
		}
		checkInvariants(t, j, res)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestInvariantsAcrossSuite runs every Table 3 benchmark under the
// default configuration and checks the same conservation laws.
func TestInvariantsAcrossSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("suite sweep in -short mode")
	}
	for _, b := range workload.Suite() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			j, res := newRig().runJob(t, Spec{Benchmark: b, BaseConfig: mrconf.Default()})
			if res.Failed {
				t.Fatalf("failed: %v", res.Err)
			}
			checkInvariants(t, j, res)
		})
	}
}

// TestMonotoneSortBuffer checks a directional property the tuner
// relies on: growing io.sort.mb (with memory to hold it) never
// increases map-side spilled records.
func TestMonotoneSortBuffer(t *testing.T) {
	b := workload.Terasort(6, 0, 0)
	prev := math.Inf(1)
	for _, sortMB := range []float64{50, 100, 200, 400} {
		cfg := mrconf.Default().With(mrconf.MapMemoryMB, 2048).With(mrconf.IOSortMB, sortMB)
		r := newRig()
		res := r.run(t, Spec{Benchmark: b, BaseConfig: cfg})
		if res.Counters.SpilledRecordsMap > prev+1e-6 {
			t.Fatalf("spills increased when io.sort.mb grew to %v", sortMB)
		}
		prev = res.Counters.SpilledRecordsMap
	}
}

// TestMonotoneReduceBuffer mirrors the property on the reduce side:
// retaining more map output in memory never increases reduce spills.
func TestMonotoneReduceBuffer(t *testing.T) {
	b := workload.Terasort(6, 0, 0)
	prev := math.Inf(1)
	for _, ibp := range []float64{0, 0.3, 0.6, 0.85} {
		cfg := mrconf.Default().
			With(mrconf.ReduceMemoryMB, 2048).
			With(mrconf.ShuffleInputBufferPct, 0.85).
			With(mrconf.ShuffleMemoryLimitPct, 0.5).
			With(mrconf.ReduceInputBufferPct, ibp)
		r := newRig()
		res := r.run(t, Spec{Benchmark: b, BaseConfig: cfg})
		if res.Counters.SpilledRecordsRed > prev+1e-6 {
			t.Fatalf("reduce spills increased when input.buffer.percent grew to %v", ibp)
		}
		prev = res.Counters.SpilledRecordsRed
	}
}

// TestLiveConfigApplied verifies category-3 parameters reach running
// tasks: a controller that flips spill.percent at the live hook must
// see its value in the reports.
func TestLiveConfigApplied(t *testing.T) {
	ctrl := &liveSpill{}
	r := newRig()
	res := r.run(t, Spec{Benchmark: workload.Terasort(2, 0, 0), BaseConfig: mrconf.Default(), Controller: ctrl})
	if res.Failed {
		t.Fatal(res.Err)
	}
	for _, rep := range res.Reports {
		if rep.Type == MapTask && rep.Config.SpillPct() != 0.99 {
			t.Fatalf("live spill.percent not applied: %v", rep.Config.SpillPct())
		}
	}
}

type liveSpill struct{ PassthroughController }

func (liveSpill) LiveConfig(t *Task, current mrconf.Config) mrconf.Config {
	return current.With(mrconf.SortSpillPercent, 0.99)
}
