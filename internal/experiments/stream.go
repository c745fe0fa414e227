package experiments

import (
	"fmt"
	"math/rand"
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
	// mode each cell's injector carries its rack's faults, renumbered
	// like the cell's nodes (faults.Spec.Rack).
	Faults *faults.Spec

	// Parallel, when positive, runs the stream on the rack-cell
	// partition: each rack is a self-contained cell, a one-rack cluster
	// with its own engine, resource manager, namenode and stats sink,
	// and a job reaches its cell StreamSubmitDelaySecs after it
	// arrives. Cells share no state, so each runs to completion as a
	// whole simulation, on at most Parallel workers (never more than
	// GOMAXPROCS), and any positive value gives the same result. An
	// attached Sink is not safe for concurrent use, so it forces one
	// worker and receives cell 0's events, then cell 1's, and so on.
	// Zero selects the whole-cluster partition.
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

	// Events is the number of simulation events processed, summed over
	// a rack-cell run's engines; SinkEvents is the number of trace
	// events the stats sink ingested. Both grow with the stream while
	// the sink's retained state stays flat.
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
// per rack, each over its own one-rack cluster and engine, so cells
// share no model state by construction.
type streamCell struct {
	cellTally
	spec  *StreamSpec
	eng   *sim.Engine
	rm    *yarn.ResourceManager
	fs    *hdfs.FileSystem
	trace trace.Sink // sink, tee'd with StreamSpec.Sink when set
	pool  *mapreduce.Pool
	hooks mapreduce.FaultHooks
}

// cellTally is what the fold reads of a drained cell; the rest of the
// cell's stack is garbage once its engine drains.
type cellTally struct {
	sink      *trace.StatsSink
	completed int
	totalDur  float64
	makespan  float64
	events    uint64 // events its engine processed
}

// newStreamCell builds a partition's stack over c: its resource
// manager, its namenode, then, when fs is non-nil, an injector armed
// with fs. The order fixes the events a cell schedules before its
// first arrival, which every pinned result depends on.
func newStreamCell(spec *StreamSpec, c *cluster.Cluster, src *sim.Source, fs *faults.Spec) *streamCell {
	cell := &streamCell{
		cellTally: cellTally{sink: trace.NewStatsSink()},
		spec:      spec,
		eng:       c.Eng,
		pool:      mapreduce.NewPool(),
	}
	cell.trace = cell.sink
	if spec.Sink != nil {
		cell.trace = trace.Tee(cell.sink, spec.Sink)
	}
	cell.rm = yarn.NewResourceManager(c.Eng, c, yarn.FairScheduler{})
	cell.fs = hdfs.New(c, src.Stream("hdfs"))
	if fs != nil {
		inj, err := faults.New(c, src, *fs, cell.trace)
		if err != nil {
			panic(err)
		}
		cell.hooks = inj
	}
	return cell
}

// submit starts arrival i, a job of class cl, on the cell now. Its
// name and tuner seed depend only on i.
func (cell *streamCell) submit(i int, cl StreamClass) {
	name := fmt.Sprintf("%s-%05d", cl.Bench.Name, i)
	base := mrconf.Default()
	var ctrl mapreduce.Controller
	if cell.spec.Tuned {
		ctrl = core.NewTuner(name, cl.Bench.NumMaps, cl.Bench.NumReduces, base,
			core.TunerOptions{Strategy: core.Conservative, Seed: cell.spec.Seed + uint64(i)})
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
		if now := cell.eng.Now(); now > cell.makespan {
			cell.makespan = now
		}
	})
}

// drain runs the cell's engine until it empties and returns the tally.
func (cell *streamCell) drain() cellTally {
	cell.eng.Run()
	t := cell.cellTally
	t.events = cell.eng.Processed()
	return t
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
// positive weight, a cluster without nodes, a fault on a node the
// cluster lacks, or an arrival process workload.ArrivalSpec rejects.
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
	if spec.Faults != nil {
		if err := spec.Faults.CheckNodes(spec.Racks * spec.NodesPerRack); err != nil {
			return err
		}
	}
	return spec.arrivals().Validate()
}

// RunStream executes one continuous-serving run to completion: every
// arrival inside the horizon is submitted (subject to MaxJobs) and
// every engine drains until its last job finishes. Arrivals are dealt
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
	src := sim.NewSource(spec.Seed)
	pickClass := classPicker(classes, src.Sub("stream").Stream("classes"))
	if spec.Parallel > 0 {
		return runCells(&spec, classes, src, pickClass)
	}

	eng := sim.NewEngine()
	eng.MaxEvents = streamMaxEvents
	cell := newStreamCell(&spec, cluster.New(eng, spec.clusterConfig(spec.Racks)), src, spec.Faults)
	res := StreamResult{}
	submit := func(i int, t float64) {
		if spec.MaxJobs > 0 && res.Jobs >= spec.MaxJobs {
			return
		}
		res.Jobs++
		cell.submit(i, classes[pickClass()])
	}
	if _, err := workload.ScheduleArrivals(eng, src.Sub("stream"), spec.arrivals(), submit); err != nil {
		panic(err)
	}
	res.fold([]cellTally{cell.drain()})
	return res
}

// runCells runs the rack-cell partition (see StreamSpec.Parallel). It
// draws the arrivals and their classes once, in arrival order, and
// deals them round-robin, arrival i to cell i mod Racks. Each cell then
// runs on an engine of its own: the cell's construction events, then
// its arrival series, then all it schedules while running are stamped
// in the relative order the shared engine of the cells interleaved
// would stamp them. Cells share no state, so every result, and every
// event count, is that of the interleaved run (docs/MODEL.md §16).
func runCells(spec *StreamSpec, classes []StreamClass, src *sim.Source, pickClass func() int) StreamResult {
	times, err := workload.Arrivals(src.Sub("stream"), spec.arrivals())
	if err != nil {
		panic(err)
	}
	n := spec.Racks
	cellTimes := make([][]float64, n)
	jobClass := make([]int, 0, len(times))
	for i, t := range times {
		if spec.MaxJobs > 0 && i == spec.MaxJobs {
			break
		}
		jobClass = append(jobClass, pickClass())
		cellTimes[i%n] = append(cellTimes[i%n], t)
	}
	res := StreamResult{Jobs: len(jobClass)}

	workers := spec.Parallel
	if spec.Sink != nil {
		workers = 1
	}
	cfg := spec.clusterConfig(1)
	tallies := make([]cellTally, n)
	parallelFor(n, workers, func(r int) {
		eng := sim.NewEngine()
		eng.MaxEvents = streamMaxEvents
		cellSrc, cellFaults := src.Sub(fmt.Sprintf("rack%03d", r)), spec.Faults
		if cellFaults != nil {
			rack := cellFaults.Rack(r*spec.NodesPerRack, spec.NodesPerRack)
			cellFaults = &rack
		}
		cell := newStreamCell(spec, cluster.New(eng, cfg), cellSrc, cellFaults)
		// Cell r's k-th arrival is arrival r + k*n.
		eng.AtEach(cellTimes[r], func(k int) {
			i := r + k*n
			cl := classes[jobClass[i]]
			eng.After(StreamSubmitDelaySecs, func() { cell.submit(i, cl) })
		})
		tallies[r] = cell.drain()
	})
	res.fold(tallies)
	// The interleaved run's arrival series also fired the arrivals
	// MaxJobs dropped.
	res.Events += uint64(len(times) - res.Jobs)
	return res
}

// streamMaxEvents caps each engine of a serving run.
const streamMaxEvents = 2_000_000_000

// clusterConfig is the serving cluster's layout: racks racks of
// spec.NodesPerRack paper nodes.
func (spec *StreamSpec) clusterConfig(racks int) cluster.Config {
	cfg := cluster.PaperConfig()
	cfg.RackSizes = make([]int, racks)
	for i := range cfg.RackSizes {
		cfg.RackSizes[i] = spec.NodesPerRack
	}
	// ~4:1 oversubscribed uplink for a 32-node rack of 1 GbE nodes.
	cfg.UplinkMBps = 1000
	return cfg
}

// classPicker draws a class index from rng in proportion to the
// classes' weights.
func classPicker(classes []StreamClass, rng *rand.Rand) func() int {
	totalWeight := 0
	for _, cl := range classes {
		totalWeight += cl.Weight
	}
	return func() int {
		w := rng.Intn(totalWeight)
		for i, cl := range classes {
			w -= cl.Weight
			if w < 0 {
				return i
			}
		}
		return len(classes) - 1
	}
}

// fold sums the cells' tallies into res in cell order: a single cell
// folds exactly (every sum is 0 + x).
func (res *StreamResult) fold(tallies []cellTally) {
	stats := trace.NewStatsSink()
	totalDur := 0.0
	for _, t := range tallies {
		res.Completed += t.completed
		totalDur += t.totalDur
		if t.makespan > res.Makespan {
			res.Makespan = t.makespan
		}
		stats.Merge(t.sink)
		res.Events += t.events
	}
	res.Stats = stats
	if res.Completed != res.Jobs {
		panic(fmt.Sprintf("experiments: stream completed %d of %d jobs", res.Completed, res.Jobs))
	}
	if res.Jobs > 0 {
		res.MeanDur = totalDur / float64(res.Jobs)
	}
	res.SinkEvents = stats.EventCount()
}
