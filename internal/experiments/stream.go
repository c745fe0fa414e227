package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/hdfs"
	"repro/internal/mapreduce"
	"repro/internal/mrconf"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/yarn"
)

// StreamClass is one entry of the continuous-serving job mix: a
// benchmark submitted with relative frequency Weight. Class names must
// not contain '-' after the last path segment, because job names are
// "<class>-<index>" and trace.StatsSink folds them back into classes
// by stripping the final "-<suffix>".
type StreamClass struct {
	Weight int
	Bench  workload.Benchmark
}

// DefaultStreamClasses returns the serving mix: the Table 3
// applications rescaled to the small-job sizes that dominate shared
// clusters (the full-corpus Table 3 runs are batch jobs; a day of
// thousands of arrivals is made of their scaled-down siblings), plus
// Terasort and BBP representatives. Weights sum to 100.
func DefaultStreamClasses() []StreamClass {
	return []StreamClass{
		{Weight: 30, Bench: mustSpec(workload.BenchmarkSpec{
			Name: "wordcount2g", InputGB: 2, Maps: 16, Reduces: 4,
			MapCPUPerMB: 0.012, RawMapSelectivity: 1.4, CombinerReduction: 0.2,
			ReduceSelectivity: 0.3, RecordBytes: 16, SkewCV: 0.2,
			MapWorkingSetMB: 300, ReduceWorkingSetMB: 250,
		})},
		{Weight: 20, Bench: mustSpec(workload.BenchmarkSpec{
			Name: "invidx2g", InputGB: 2, Maps: 16, Reduces: 4,
			MapCPUPerMB: 0.02, RawMapSelectivity: 1.2, CombinerReduction: 0.25,
			ReduceSelectivity: 0.8, RecordBytes: 40, SkewCV: 0.25,
			MapWorkingSetMB: 350, ReduceWorkingSetMB: 300,
		})},
		{Weight: 15, Bench: mustSpec(workload.BenchmarkSpec{
			Name: "bigram3g", InputGB: 3, Maps: 24, Reduces: 6,
			MapCPUPerMB: 0.018, RawMapSelectivity: 1.8, CombinerReduction: 0.35,
			ReduceSelectivity: 0.5, RecordBytes: 25, SkewCV: 0.3,
			MapWorkingSetMB: 300, ReduceWorkingSetMB: 250,
		})},
		{Weight: 20, Bench: mustSpec(workload.BenchmarkSpec{
			Name: "textsearch1g", InputGB: 1, Maps: 8, Reduces: 2,
			MapCPUPerMB: 0.08, RawMapSelectivity: 0.2, CombinerReduction: 1,
			ReduceSelectivity: 0.5, RecordBytes: 100, SkewCV: 0.15,
			MapWorkingSetMB: 200, ReduceWorkingSetMB: 150,
		})},
		{Weight: 10, Bench: workload.Terasort(2, 0, 0)},
		{Weight: 5, Bench: workload.BBP(25000, 8)},
	}
}

// StreamSpec describes a continuous multi-tenant serving run: a
// Poisson+diurnal arrival stream of mixed job classes against one
// shared cluster under fair scheduling. The zero value is not usable;
// start from DefaultStreamSpec.
type StreamSpec struct {
	Seed uint64

	// Racks × NodesPerRack worker nodes, each with the paper's node
	// hardware (8 cores, 28 vcores, 6 GB container memory, one ~90 MB/s
	// disk, 1 GbE).
	Racks        int
	NodesPerRack int

	// Arrival process (see workload.ArrivalSpec): MeanPerHour jobs/hour
	// on average, day/night modulated by DiurnalAmplitude, stopping at
	// HorizonSecs. MaxJobs, when positive, caps submissions (later
	// arrivals are dropped).
	MeanPerHour      float64
	DiurnalAmplitude float64
	HorizonSecs      float64
	MaxJobs          int

	// Classes is the job mix; nil means DefaultStreamClasses().
	Classes []StreamClass

	// Tuned attaches a fresh MRONLINE conservative tuner to every
	// submission (the fast-single-run use case applied fleet-wide).
	Tuned bool

	// Sink, when non-nil, additionally receives every trace event
	// (tee'd with the internal stats sink).
	Sink trace.Sink

	// Faults, when non-nil, injects the spec's faults into the run. The
	// whole-cluster cell's injector carries the whole spec; in rack-cell
	// mode each cell's injector carries exactly the faults that land on
	// its nodes.
	Faults *faults.Spec

	// Parallel, when positive, runs the stream on the rack-cell
	// partition: each rack is a self-contained cell (scoped resource
	// manager, scoped single-rack namenode, rack-local fabric, private
	// stats sink), and a job reaches its cell StreamSubmitDelaySecs
	// after it arrives. Every cell schedules on the one engine, so any
	// positive value gives the same result; the field is a switch, not
	// a worker count. Zero selects the whole-cluster partition.
	Parallel int
}

// StreamSubmitDelaySecs is the latency from a job's arrival to its
// delivery at a rack cell. It is part of the cell model — every cell
// result is pinned with it.
const StreamSubmitDelaySecs = 1.0

// DefaultStreamSpec is the flagship workload: a simulated day of
// ~21k jobs (875/hour mean, ±50% diurnal swing) on a 10,016-node
// cluster (313 racks × 32 nodes, matching the engine's synthetic
// 10k-node benchmark).
func DefaultStreamSpec(seed uint64) StreamSpec {
	return StreamSpec{
		Seed:             seed,
		Racks:            313,
		NodesPerRack:     32,
		MeanPerHour:      875,
		DiurnalAmplitude: 0.5,
		HorizonSecs:      86400,
	}
}

// StreamResult summarizes one serving run.
type StreamResult struct {
	Jobs      int     // jobs submitted
	Completed int     // jobs finished (== Jobs unless something is wrong)
	Makespan  float64 // finish time of the last job, seconds
	MeanDur   float64 // mean job completion latency, seconds

	// Events is the number of simulation events processed; SinkEvents
	// is the number of trace events the stats sink ingested. Both grow
	// with the stream while the sink's retained state stays flat.
	Events     uint64
	SinkEvents int

	// Stats holds the per-class aggregates the run folded into.
	Stats *trace.StatsSink
}

// Report renders the deterministic aggregate summary: run totals plus
// the per-class latency table. Same seed and spec → byte-identical
// output, which is what the determinism tests pin.
func (r *StreamResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "jobs=%d completed=%d makespan=%.1fs mean=%.1fs sink_events=%d\n",
		r.Jobs, r.Completed, r.Makespan, r.MeanDur, r.SinkEvents)
	r.Stats.WriteSummary(&b)
	return b.String()
}

// streamCell is one serving partition's self-contained stack:
// everything a job touches after submission belongs to its cell. The
// whole-cluster partition is one cell; the rack-cell partition has one
// per rack, each with its own resource manager, namenode and stats
// sink, so cells share no model state by construction.
type streamCell struct {
	rm    *yarn.ResourceManager
	fs    *hdfs.FileSystem
	sink  *trace.StatsSink
	trace trace.Sink // sink, tee'd with StreamSpec.Sink when set
	pool  *mapreduce.Pool
	hooks mapreduce.FaultHooks

	completed int
	totalDur  float64
	makespan  float64
}

// arrivals is the spec's arrival process.
func (spec StreamSpec) arrivals() workload.ArrivalSpec {
	return workload.ArrivalSpec{
		MeanPerHour:      spec.MeanPerHour,
		DiurnalAmplitude: spec.DiurnalAmplitude,
		Horizon:          spec.HorizonSecs,
	}
}

// Validate reports the first reason spec cannot run: a class without a
// positive weight, a cluster without nodes, or an arrival process
// workload.ArrivalSpec rejects.
func (spec StreamSpec) Validate() error {
	if spec.Classes != nil && len(spec.Classes) == 0 {
		return fmt.Errorf("experiments: stream needs at least one class")
	}
	for _, cl := range spec.Classes {
		if cl.Weight <= 0 {
			return fmt.Errorf("experiments: stream class %s needs positive weight", cl.Bench.Name)
		}
	}
	if spec.Racks <= 0 || spec.NodesPerRack <= 0 {
		return fmt.Errorf("experiments: stream cluster needs positive racks and nodes per rack, got %d x %d",
			spec.Racks, spec.NodesPerRack)
	}
	return spec.arrivals().Validate()
}

// RunStream executes one continuous-serving run to completion: every
// arrival inside the horizon is submitted (subject to MaxJobs) and the
// engine drains until the last job finishes. Arrivals are dealt
// round-robin to the partition's cells; a rack cell receives its job
// StreamSubmitDelaySecs after the arrival. Per-cell results fold in
// cell order after the drain. The default is the whole-cluster
// partition the figure pipeline pins; Parallel > 0 selects the
// rack-cell partition (see StreamSpec.Parallel). It panics with
// Validate's error on an invalid spec.
func RunStream(spec StreamSpec) StreamResult {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	classes := spec.Classes
	if classes == nil {
		classes = DefaultStreamClasses()
	}
	totalWeight := 0
	for _, cl := range classes {
		totalWeight += cl.Weight
	}
	rackCells := spec.Parallel > 0

	eng := sim.NewEngine()
	eng.MaxEvents = 2_000_000_000
	sizes := make([]int, spec.Racks)
	for i := range sizes {
		sizes[i] = spec.NodesPerRack
	}
	cfg := cluster.PaperConfig()
	cfg.RackSizes = sizes
	// ~4:1 oversubscribed uplink for a 32-node rack of 1 GbE nodes.
	cfg.UplinkMBps = 1000
	cfg.RackLocalNet = rackCells
	c := cluster.New(eng, cfg)
	src := sim.NewSource(spec.Seed)
	base := mrconf.Default()

	nCells := 1
	if rackCells {
		nCells = spec.Racks
	}
	cells := make([]*streamCell, nCells)
	for r := range cells {
		cell := &streamCell{
			sink: trace.NewStatsSink(),
			pool: mapreduce.NewPool(),
		}
		cell.trace = cell.sink
		if spec.Sink != nil {
			cell.trace = trace.Tee(cell.sink, spec.Sink)
		}
		cellSrc, cellFaults := src, spec.Faults
		if rackCells {
			cellSrc = src.Sub(fmt.Sprintf("rack%03d", r))
			cell.rm = yarn.NewScopedResourceManager(eng, c, yarn.FairScheduler{}, r)
			cell.fs = hdfs.NewScoped(c, cellSrc.Stream("hdfs"), r)
			if cellFaults != nil {
				filtered := cellFaults.FilterNodes(func(node int) bool { return c.Nodes[node].Rack == r })
				cellFaults = &filtered
			}
		} else {
			cell.rm = yarn.NewResourceManager(eng, c, yarn.FairScheduler{})
			cell.fs = hdfs.New(c, cellSrc.Stream("hdfs"))
		}
		if cellFaults != nil {
			inj, err := faults.New(c, cellSrc, *cellFaults, cell.trace)
			if err != nil {
				panic(err)
			}
			cell.hooks = inj
		}
		cells[r] = cell
	}

	classRNG := src.Sub("stream").Stream("classes")
	pickClass := func() int {
		w := classRNG.Intn(totalWeight)
		for i, cl := range classes {
			w -= cl.Weight
			if w < 0 {
				return i
			}
		}
		return len(classes) - 1
	}

	res := StreamResult{}
	submit := func(i int, t float64) {
		if spec.MaxJobs > 0 && res.Jobs >= spec.MaxJobs {
			return
		}
		res.Jobs++
		cl := classes[pickClass()]
		cell := cells[(res.Jobs-1)%len(cells)]
		// Name, class, and tuner seed are all fixed here at arrival; run
		// only touches its cell's state.
		name := fmt.Sprintf("%s-%05d", cl.Bench.Name, i)
		run := func() {
			var ctrl mapreduce.Controller
			if spec.Tuned {
				ctrl = core.NewTuner(name, cl.Bench.NumMaps, cl.Bench.NumReduces, base,
					core.TunerOptions{Strategy: core.Conservative, Seed: spec.Seed + uint64(i)})
			}
			mapreduce.Submit(cell.rm, cell.fs, mapreduce.Spec{
				Name:                 name,
				Benchmark:            cl.Bench,
				BaseConfig:           base,
				Controller:           ctrl,
				Trace:                cell.trace,
				Pool:                 cell.pool,
				Faults:               cell.hooks,
				ReleaseInputOnFinish: true,
			}, func(rr mapreduce.Result) {
				cell.completed++
				cell.totalDur += rr.Duration
				if now := eng.Now(); now > cell.makespan {
					cell.makespan = now
				}
			})
		}
		if rackCells {
			eng.After(StreamSubmitDelaySecs, run)
		} else {
			run()
		}
	}

	if _, err := workload.ScheduleArrivals(eng, src.Sub("stream"), spec.arrivals(), submit); err != nil {
		panic(err)
	}
	eng.Run()

	// Fold per-cell results in cell order: a single cell folds exactly
	// (every sum is 0 + x).
	stats := trace.NewStatsSink()
	totalDur := 0.0
	for _, cell := range cells {
		res.Completed += cell.completed
		totalDur += cell.totalDur
		if cell.makespan > res.Makespan {
			res.Makespan = cell.makespan
		}
		stats.Merge(cell.sink)
	}
	res.Stats = stats
	if res.Completed != res.Jobs {
		panic(fmt.Sprintf("experiments: stream completed %d of %d jobs", res.Completed, res.Jobs))
	}
	if res.Jobs > 0 {
		res.MeanDur = totalDur / float64(res.Jobs)
	}
	res.Events = eng.Processed()
	res.SinkEvents = stats.EventCount()
	return res
}
