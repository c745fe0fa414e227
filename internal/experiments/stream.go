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
	"repro/internal/tuner"
	"repro/internal/workload"
	"repro/internal/yarn"
)

// StreamClass is one entry of the continuous-serving job mix: a
// benchmark submitted with relative frequency Weight. Class names must
// not contain '-' after the last path segment, because job names are
// "<class>-<index>" and trace.DefaultClassify folds them back by
// stripping the final "-<suffix>".
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

	// Tuned attaches a per-job MRONLINE conservative tuner to every
	// submission (the fast-single-run use case applied fleet-wide).
	// Tuner objects are recycled across jobs via core.Tuner.Reset.
	Tuned bool

	// WarmStart (requires Tuned) switches the per-job tuner to the
	// aggressive strategy backed by a shared cross-job tuner.Store:
	// each job consults its class's stored search state for a warm
	// start and feeds its outcome back on completion, so later jobs of
	// a class issue strictly fewer test waves than the first. Warm
	// tuners are built per job (a warm start is a construction-time
	// decision), not recycled. Default-off, leaving the committed
	// conservative-stream results byte-identical.
	WarmStart bool
	// Backend names the optimizer backend for WarmStart runs ("" =
	// "hill"); see tuner.Backends().
	Backend string
	// Store is the shared warm-start store; nil allocates a private
	// one. Pass a store to persist learning across stream runs.
	Store *tuner.Store

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

	// ClassWaves records, for WarmStart runs, every job's total test
	// waves (both scopes) per class name in completion order — the
	// evidence that warm-started jobs issue fewer waves. Nil otherwise.
	ClassWaves map[string][]int
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
	rm        *yarn.ResourceManager
	fs        *hdfs.FileSystem
	sink      *trace.StatsSink
	trace     trace.Sink // sink, tee'd with StreamSpec.Sink when set
	pool      *mapreduce.Pool
	hooks     mapreduce.FaultHooks
	tunerFree [][]*core.Tuner // per class: Reset keeps capacity sized by task counts

	completed int
	totalDur  float64
	makespan  float64
}

// RunStream executes one continuous-serving run to completion: every
// arrival inside the horizon is submitted (subject to MaxJobs) and the
// engine drains until the last job finishes. Arrivals are dealt
// round-robin to the partition's cells; a rack cell receives its job
// StreamSubmitDelaySecs after the arrival. Per-cell results fold in
// cell order after the drain. The default is the whole-cluster
// partition the figure pipeline pins; Parallel > 0 selects the
// rack-cell partition (see StreamSpec.Parallel).
func RunStream(spec StreamSpec) StreamResult {
	classes := spec.Classes
	if classes == nil {
		classes = DefaultStreamClasses()
	}
	totalWeight := 0
	for _, cl := range classes {
		if cl.Weight <= 0 {
			panic(fmt.Sprintf("experiments: stream class %s needs positive weight", cl.Bench.Name))
		}
		totalWeight += cl.Weight
	}
	rackCells := spec.Parallel > 0

	eng := sim.NewEngine()
	eng.MaxEvents = 2_000_000_000
	sizes := make([]int, spec.Racks)
	for i := range sizes {
		sizes[i] = spec.NodesPerRack
	}
	c := cluster.New(eng, cluster.Config{
		RackSizes:      sizes,
		CoresPerNode:   8,
		VCoresPerNode:  28,
		ContainerMemMB: 6 * 1024,
		DiskMBps:       90,
		NICMBps:        117,
		// ~4:1 oversubscribed uplink for a 32-node rack of 1 GbE nodes.
		UplinkMBps:   1000,
		RackLocalNet: rackCells,
	})
	src := sim.NewSource(spec.Seed)
	base := mrconf.Default()

	nCells := 1
	if rackCells {
		nCells = spec.Racks
	}
	cells := make([]*streamCell, nCells)
	for r := range cells {
		cell := &streamCell{
			sink:      trace.NewStatsSink(),
			pool:      mapreduce.NewPool(),
			tunerFree: make([][]*core.Tuner, len(classes)),
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

	var store *tuner.Store
	if spec.Tuned && spec.WarmStart {
		store = spec.Store
		if store == nil {
			store = tuner.NewStore()
		}
	}

	res := StreamResult{}
	if store != nil {
		res.ClassWaves = make(map[string][]int)
	}
	submit := func(i int, t float64) {
		if spec.MaxJobs > 0 && res.Jobs >= spec.MaxJobs {
			return
		}
		res.Jobs++
		ci := pickClass()
		cl := classes[ci]
		cell := cells[(res.Jobs-1)%len(cells)]
		// Name, class, and tuner seed are all fixed here at arrival; run
		// only touches its cell's state.
		name := fmt.Sprintf("%s-%05d", cl.Bench.Name, i)
		run := func() {
			var ctrl mapreduce.Controller
			var tun *core.Tuner
			var warmKey string
			if spec.Tuned {
				if store != nil {
					// Aggressive warm-start path: per-job tuner seeded from
					// the class's best-known search state.
					warmKey = tuner.Key(cl.Bench.Name, cl.Bench.InputSizeMB)
					opts := core.TunerOptions{Strategy: core.Aggressive,
						Seed: spec.Seed + uint64(i), Backend: spec.Backend}
					if ent, ok := store.Get(warmKey); ok && ent.Usable() {
						w := ent
						opts.Warm = &w
					}
					tun = core.NewTuner(name, cl.Bench.NumMaps, cl.Bench.NumReduces, base, opts)
				} else {
					tun = cell.getTuner(ci, name, cl.Bench, base, spec.Seed, i)
				}
				ctrl = tun
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
				if tun == nil {
					return
				}
				if store != nil {
					store.Update(warmKey, tun.ExportWarm())
					mw, rw := tun.TestWaves()
					res.ClassWaves[cl.Bench.Name] = append(res.ClassWaves[cl.Bench.Name], mw+rw)
				} else {
					cell.tunerFree[ci] = append(cell.tunerFree[ci], tun)
				}
			})
		}
		if rackCells {
			eng.After(StreamSubmitDelaySecs, run)
		} else {
			run()
		}
	}

	_, err := workload.ScheduleArrivals(eng, src.Sub("stream"), workload.ArrivalSpec{
		MeanPerHour:      spec.MeanPerHour,
		DiurnalAmplitude: spec.DiurnalAmplitude,
		Horizon:          spec.HorizonSecs,
	}, submit)
	if err != nil {
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

func (cell *streamCell) getTuner(ci int, name string, b workload.Benchmark,
	base mrconf.Config, seed uint64, seq int) *core.Tuner {
	if n := len(cell.tunerFree[ci]); n > 0 {
		tu := cell.tunerFree[ci][n-1]
		cell.tunerFree[ci][n-1] = nil
		cell.tunerFree[ci] = cell.tunerFree[ci][:n-1]
		tu.Reset(name, b.NumMaps, b.NumReduces, base)
		return tu
	}
	return core.NewTuner(name, b.NumMaps, b.NumReduces, base,
		core.TunerOptions{Strategy: core.Conservative, Seed: seed + uint64(seq)})
}
