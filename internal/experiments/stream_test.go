package experiments

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/trace"
	"repro/internal/workload"
)

// smallStreamSpec is the test-scale serving run: a couple of simulated
// hours of small-job arrivals on a 192-node cluster — big enough to
// exercise fair-share contention and every job class, small enough for
// the race detector.
func smallStreamSpec(seed uint64) StreamSpec {
	return StreamSpec{
		Seed:             seed,
		Racks:            24,
		NodesPerRack:     8,
		MeanPerHour:      120,
		DiurnalAmplitude: 0.5,
		HorizonSecs:      1800,
		MaxJobs:          40,
	}
}

// TestStreamSameSeedByteIdentical pins the determinism contract of the
// serving path: two runs of the same spec produce byte-identical
// aggregate reports (totals, makespan, and the per-class latency
// table).
func TestStreamSameSeedByteIdentical(t *testing.T) {
	a := RunStream(smallStreamSpec(11))
	b := RunStream(smallStreamSpec(11))
	if a.Report() != b.Report() {
		t.Fatalf("same-seed reports differ:\n--- run 1 ---\n%s--- run 2 ---\n%s", a.Report(), b.Report())
	}
	if a.Events != b.Events {
		t.Fatalf("same-seed event counts differ: %d vs %d", a.Events, b.Events)
	}
	c := RunStream(smallStreamSpec(12))
	if a.Report() == c.Report() {
		t.Fatal("different seeds produced identical reports; arrivals are not seeded")
	}
}

// TestStreamSoloTraceMatchesInStream runs the same first arrival twice
// — once as the only job of the stream, once followed by two more —
// and asserts its per-event trace is byte-identical. Placement
// contention is excluded by construction: the arrival rate is fixed
// low enough that job 0 finishes before job 1 arrives, so the cluster,
// HDFS placement state, and RNG streams it sees are the same in both
// runs. This is the "a job in the fleet behaves like the job alone"
// guarantee the pooled/recycled serving path must preserve.
func TestStreamSoloTraceMatchesInStream(t *testing.T) {
	run := func(maxJobs int) []trace.Event {
		var rec trace.Recorder
		spec := smallStreamSpec(11)
		spec.MeanPerHour = 6 // mean gap 600s >> job duration
		spec.HorizonSecs = 3600
		spec.MaxJobs = maxJobs
		spec.Sink = &rec
		res := RunStream(spec)
		if res.Jobs != maxJobs {
			t.Fatalf("stream submitted %d jobs, want %d", res.Jobs, maxJobs)
		}
		var first string
		var out []trace.Event
		for _, e := range rec.Events() {
			if e.Kind == trace.JobSubmit && first == "" {
				first = e.Job
			}
			if e.Job == first {
				out = append(out, e)
			}
		}
		return out
	}

	solo := run(1)
	inStream := run(3)
	if !reflect.DeepEqual(solo, inStream) {
		t.Fatalf("first job's trace differs alone (%d events) vs in-stream (%d events)",
			len(solo), len(inStream))
	}
}

// TestStreamSmokeThreeSeeds is the CI serving smoke (run with -race
// there): a short simulated stream across three seeds on both
// partitions, asserting every job completes, that an attached Sink sees
// exactly the events the stats sink ingested (every cell tees into the
// same external sink), and that the sink's retained state stays flat —
// the stats sink ingests every event yet holds only per-class
// aggregates.
func TestStreamSmokeThreeSeeds(t *testing.T) {
	for _, seed := range []uint64{3, 5, 7} {
		for _, parallel := range []int{0, 1} {
			spec := smallStreamSpec(seed)
			spec.Parallel = parallel
			sink := new(countSink)
			spec.Sink = sink
			res := RunStream(spec)
			if res.Completed != res.Jobs || res.Jobs == 0 {
				t.Fatalf("seed %d parallel=%d: %d of %d jobs completed", seed, parallel, res.Completed, res.Jobs)
			}
			if res.SinkEvents != res.Stats.EventCount() || res.SinkEvents < res.Jobs*4 {
				t.Fatalf("seed %d parallel=%d: sink saw %d events for %d jobs", seed, parallel, res.SinkEvents, res.Jobs)
			}
			if int(*sink) != res.SinkEvents {
				t.Fatalf("seed %d parallel=%d: attached sink saw %d events, stats sink %d", seed, parallel, *sink, res.SinkEvents)
			}
			// Flat memory: retained state is bounded by the class mix,
			// not the stream length.
			if n := len(res.Stats.Classes()); n > len(DefaultStreamClasses())+1 {
				t.Fatalf("seed %d parallel=%d: stats sink retains %d classes", seed, parallel, n)
			}
			if o := res.Stats.Overall(); o.Submitted != o.Jobs {
				t.Fatalf("seed %d parallel=%d: %d jobs still in flight after drain", seed, parallel, o.Submitted-o.Jobs)
			}
		}
	}
}

// TestStreamCellsWorkerCountInvariant: a rack-cell run's result does
// not depend on how many workers its cells spread over, with and
// without churn and tuning, and an attached Sink, which forces one
// worker, sees the same event sequence on every run.
func TestStreamCellsWorkerCountInvariant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	churn := smallStreamSpec(11)
	churn.Faults = churnSpec()
	churn.Tuned = true
	for _, leg := range []struct {
		name string
		spec StreamSpec
	}{{"clean", smallStreamSpec(11)}, {"churn-tuned", churn}} {
		name, spec := leg.name, leg.spec
		var report string
		var events uint64
		for _, parallel := range []int{1, 2, 8} {
			spec.Parallel = parallel
			res := RunStream(spec)
			if parallel == 1 {
				report, events = res.Report(), res.Events
				continue
			}
			if res.Report() != report || res.Events != events {
				t.Errorf("%s: Parallel=%d gives %d events and report\n%s\nParallel=1 gives %d and\n%s",
					name, parallel, res.Events, res.Report(), events, report)
			}
		}
	}

	sinkRun := func(parallel int) uint64 {
		spec := churn
		spec.Parallel = parallel
		sink := &hashSink{h: fnv.New64a()}
		spec.Sink = sink
		RunStream(spec)
		return sink.h.Sum64()
	}
	if a, b := sinkRun(8), sinkRun(8); a != b {
		t.Errorf("two runs delivered different event sequences to the sink: %x vs %x", a, b)
	}
	if a, b := sinkRun(1), sinkRun(8); a != b {
		t.Errorf("Parallel=1 and Parallel=8 delivered different event sequences to the sink: %x vs %x", a, b)
	}
}

// hashSink hashes the kind, time and job of every event it receives,
// in order.
type hashSink struct{ h hash.Hash64 }

func (s *hashSink) Add(e trace.Event) { fmt.Fprintf(s.h, "%s %v %s\n", e.Kind, e.Time, e.Job) }

// TestStreamCellSetupAllocs pins the rack-cell partition's set-up
// cost: a run whose horizon admits no arrival still builds and drains
// every cell, each on its own engine, cluster and stack, and an added
// rack may cost at most 50 allocations.
func TestStreamCellSetupAllocs(t *testing.T) {
	allocs := func(racks int) float64 {
		spec := smallStreamSpec(11)
		spec.Racks, spec.NodesPerRack, spec.HorizonSecs = racks, 8, 1e-9
		spec.Parallel = 1
		return testing.AllocsPerRun(5, func() {
			if res := RunStream(spec); res.Jobs != 0 {
				t.Fatalf("set-up run submitted %d jobs", res.Jobs)
			}
		})
	}
	small, large := allocs(4), allocs(16)
	per := (large - small) / (16 - 4)
	t.Logf("%.2f allocations per added rack (%v at 4×8, %v at 16×8)", per, small, large)
	if per > 50 {
		t.Errorf("a rack-cell run makes %.2f allocations per added rack (%v at 4×8, %v at 16×8), want ≤ 50", per, small, large)
	}
}

// TestStreamAllocsPerJob bounds the garbage a steady-state serving job
// makes: on the second whole-cluster run of the test stream (the first
// warms the process), every job's attempts allocate at most 225 times
// on average. The task-attempt path binds its callbacks once per
// recycled object, so most of what is left is per-job set-up and trace
// events. The bound is half of what the stream cost before containers,
// HDFS ops, zero-work flows and attempt phase state were recycled (451
// mallocs per job).
func TestStreamAllocsPerJob(t *testing.T) {
	perJob := func(spec StreamSpec) (mallocs, bytes float64) {
		RunStream(spec)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := RunStream(spec)
		runtime.ReadMemStats(&after)
		n := float64(res.Jobs)
		return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
	}
	spec := smallStreamSpec(11)
	mallocs, bytes := perJob(spec)
	spec.Parallel = 1
	cellMallocs, cellBytes := perJob(spec)
	t.Logf("whole cluster: %.0f mallocs and %.1f KB per job; rack cells: %.0f mallocs and %.1f KB per job",
		mallocs, bytes/1e3, cellMallocs, cellBytes/1e3)
	if mallocs > 225 {
		t.Errorf("a whole-cluster stream job makes %.0f mallocs, want at most 225", mallocs)
	}
}

// TestStreamTunedRuns exercises the fleet-wide per-job MRONLINE leg:
// a fresh conservative tuner attaches to every submission, and the run
// still drains deterministically.
func TestStreamTunedRuns(t *testing.T) {
	spec := smallStreamSpec(11)
	spec.Tuned = true
	a := RunStream(spec)
	b := RunStream(spec)
	if a.Completed != a.Jobs || a.Jobs == 0 {
		t.Fatalf("tuned stream: %d of %d jobs completed", a.Completed, a.Jobs)
	}
	if a.Report() != b.Report() {
		t.Fatalf("tuned stream is not deterministic:\n%s\nvs\n%s", a.Report(), b.Report())
	}
}

// TestStreamCountsFailedJobs: a job that fails still finishes, so it
// counts in Completed, and also in Failed. A map working set of 4000 MB
// overflows the default 1024 MB container on every attempt.
func TestStreamCountsFailedJobs(t *testing.T) {
	spec := smallStreamSpec(11)
	spec.MaxJobs = 1
	spec.Classes = []StreamClass{{Weight: 1, Bench: mustSpec(workload.BenchmarkSpec{
		Name: "doomed", InputGB: 1, Maps: 8, Reduces: 2,
		MapCPUPerMB: 0.01, RawMapSelectivity: 1, CombinerReduction: 1,
		ReduceSelectivity: 1, RecordBytes: 100, SkewCV: 0.1,
		MapWorkingSetMB: 4000, ReduceWorkingSetMB: 150,
	})}}
	res := RunStream(spec)
	if res.Jobs != 1 || res.Completed != res.Jobs || res.Failed != 1 {
		t.Fatalf("jobs=%d completed=%d failed=%d; want 1, 1, 1", res.Jobs, res.Completed, res.Failed)
	}
	if ok := RunStream(smallStreamSpec(11)); ok.Failed != 0 {
		t.Fatalf("the test-scale stream counts %d failed jobs, want 0", ok.Failed)
	}
}

// TestStreamSpecValidate: the default spec and the test-scale spec are
// valid, and each out-of-range field is rejected by Validate and by
// RunStream (with Validate's error) before any simulation starts.
func TestStreamSpecValidate(t *testing.T) {
	for _, ok := range []StreamSpec{DefaultStreamSpec(1), smallStreamSpec(1)} {
		if err := ok.Validate(); err != nil {
			t.Fatalf("valid spec rejected: %v", err)
		}
	}
	bad := map[string]func(*StreamSpec){
		"zero weight":   func(s *StreamSpec) { s.Classes = []StreamClass{{Weight: 0, Bench: DefaultStreamClasses()[0].Bench}} },
		"no classes":    func(s *StreamSpec) { s.Classes = []StreamClass{} },
		"no racks":      func(s *StreamSpec) { s.Racks = 0 },
		"no nodes":      func(s *StreamSpec) { s.NodesPerRack = -1 },
		"inf horizon":   func(s *StreamSpec) { s.HorizonSecs = math.Inf(1) },
		"nan horizon":   func(s *StreamSpec) { s.HorizonSecs = math.NaN() },
		"zero rate":     func(s *StreamSpec) { s.MeanPerHour = 0 },
		"amplitude > 1": func(s *StreamSpec) { s.DiurnalAmplitude = 1.5 },
		// Rack cells would drop a fault past the last rack unarmed.
		"cells fault out of range": func(s *StreamSpec) {
			s.Parallel = 1
			s.Faults = &faults.Spec{LinkFlaps: []faults.LinkFlap{{Node: s.Racks * s.NodesPerRack}}}
		},
	}
	for name, mutate := range bad {
		spec := smallStreamSpec(1)
		mutate(&spec)
		err := spec.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted the spec", name)
			continue
		}
		func() {
			defer func() {
				if r, ok := recover().(error); !ok || r.Error() != err.Error() {
					t.Errorf("%s: RunStream panicked with %v, want Validate's %v", name, r, err)
				}
			}()
			RunStream(spec)
		}()
	}
}

// TestStreamReportShape sanity-checks the report format the
// determinism tests pin, so a formatting change fails loudly here
// rather than silently re-baselining.
func TestStreamReportShape(t *testing.T) {
	res := RunStream(smallStreamSpec(11))
	rep := res.Report()
	if !strings.HasPrefix(rep, "jobs=") || !strings.Contains(rep, "p99~(s)") {
		t.Fatalf("unexpected report shape:\n%s", rep)
	}
}
