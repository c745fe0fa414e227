// Package mapreduce models the MapReduce runtime on top of the yarn
// and cluster substrates: an application master that schedules map and
// reduce tasks in containers, and per-task execution models for the
// map side (split read, map function, sort buffer, spills, multi-pass
// merge) and the reduce side (shuffle with parallel copies, in-memory
// and on-disk merges, reduce function, HDFS output write).
//
// Every Table 2 parameter acts through the same mechanism as in
// Hadoop: io.sort.mb and sort.spill.percent size the map sort buffer
// and therefore the spill count; io.sort.factor bounds merge fan-in;
// the shuffle buffer percentages gate what stays in memory on the
// reduce side; container memory/vcores shape the yarn allocation and
// the CPU cap. MRONLINE plugs in through the Controller interface:
// per-task configurations, launch gating for wave-based tuning, and
// task completion reports.
package mapreduce

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/hdfs"
	"repro/internal/mrconf"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/yarn"
)

// TaskType distinguishes map from reduce tasks.
type TaskType int

const (
	MapTask TaskType = iota
	ReduceTask
)

func (t TaskType) String() string {
	if t == MapTask {
		return "map"
	}
	return "reduce"
}

// TaskState tracks a task through its lifecycle.
type TaskState int

const (
	TaskPending TaskState = iota
	TaskRequested
	TaskRunning
	TaskSucceeded
	TaskFailed
)

// Task is one map or reduce task (all attempts share the Task).
type Task struct {
	Job     *Job
	Type    TaskType
	ID      int
	Attempt int

	// Skew multiplies this task's data volume and CPU work (data skew,
	// paper §1).
	Skew float64
	// Split is the map input block; nil for reduce tasks.
	Split *hdfs.Block

	// Config is the configuration of the current attempt, assigned by
	// the Controller when the container was requested. Per-event
	// parameter reads go through its typed accessors (index loads).
	Config mrconf.Config

	State     TaskState
	StartTime float64
	EndTime   float64

	container  *yarn.Container
	pendingReq *yarn.Request
	// req is the task's container request storage, re-populated per
	// attempt so requesting a container does not allocate. The cached
	// callbacks capture only the Task and resolve the owning Job at
	// call time, which keeps them reusable when the pooled Task is
	// adopted by a later job.
	req          yarn.Request
	onAllocCB    func(*yarn.Container)
	onNodeLostCB func(*yarn.Container)
	// splitLostCB is the OnFail of the attempt's input read, bound
	// once like the two above.
	splitLostCB func()

	// The attempt's phase join. Every flow and HDFS op of the current
	// phase completes through joinCB, bound once per Task object; left
	// counts those still running, and when it reaches zero phaseDone
	// runs the phase that follows. A phase's flows and ops all belong
	// to one attempt and are canceled when it ends early, so no
	// completion reaches a later attempt or a later owner.
	joinCB func()
	left   int
	phase  phase
	// A map attempt's arguments from phase to phase; a reduce attempt
	// keeps its own in run.
	combinedMB float64
	overlapMB  float64
	spills     int
	passes     int
	// run is the reduce attempt's runtime state, reused by every
	// attempt of the task object.
	run *reduceRun
	// launch and oom are the attempt's launch and OOM-kill timers.
	// They survive recycling with the task object, so that a queued
	// event still finds its own guard.
	launch, oom taskTimer

	// liveFlows are the attempt's in-flight resource flows, canceled
	// when the attempt ends early (Job.endAttempt).
	liveFlows []*cluster.Flow
	// liveOps are the attempt's in-flight fault-tolerant HDFS
	// operations (reads/writes that internally retry), canceled
	// alongside liveFlows.
	liveOps []*hdfs.Op
	killed  bool
	// Speculative-execution links: specCopy on the original points to
	// its running shadow; specOrigin on a shadow points back. The
	// original is the logical task; logicalDone marks the first copy
	// to succeed.
	specCopy    *Task
	specOrigin  *Task
	logicalDone bool

	cpuSecs    float64
	inputMB    float64
	peakMemMB  float64
	spilledRec float64
	outputRec  float64
	dataMB     float64
	rawOutMB   float64
	numSpills  int

	// outputNode records where a completed map's output lives (set on
	// the logical task by mapFinish). If that node is later lost while
	// reducers still need the data, the map re-executes.
	outputNode *cluster.Node
}

// phase names what runs when the current phase join completes.
type phase uint8

const (
	phaseMap   phase = iota // split read and map function: mapMerge
	phaseMerge              // final spill and merge passes: mapFinish
	phaseFetch              // one shuffle fetch: fetched
	phaseSort               // merge and reduce function: reduceOutput
	phaseWrite              // HDFS output write: reduceFinish
)

// taskTimer is a task timer whose callback is bound once per Task
// object (see Job.after). While its event is queued, the guard fields
// name the job object, its generation and the attempt the event is
// for.
type taskTimer struct {
	fn      func()
	queued  bool
	job     *Job
	gen     uint64
	attempt int
}

// Counters aggregates Hadoop-style job counters.
type Counters struct {
	MapInputMB          float64
	MapOutputRecords    float64 // pre-combiner, as in Hadoop
	CombineOutputRecs   float64
	MapOutputMB         float64 // post-combiner (what is shuffled)
	SpilledRecordsMap   float64
	SpilledRecordsRed   float64
	ReduceInputMB       float64
	OutputMB            float64
	MapSpills           float64 // total spill files across map tasks
	OOMKills            int
	SpeculativeLaunches int
	SpeculativeWins     int
	SpeculativeKills    int
	NodeLocalMaps       int
	RackLocalMaps       int
	OffRackMaps         int

	// Fault-recovery counters (all zero when nothing was injected).
	TaskFailures   int // non-OOM attempt failures (counted vs MaxAttempts)
	NodeLossKills  int // attempts requeued because their node crashed
	MapsReExecuted int // completed maps re-run after output loss
}

// SpilledRecords is the Hadoop "Spilled Records" counter: map side
// plus reduce side.
func (c Counters) SpilledRecords() float64 {
	return c.SpilledRecordsMap + c.SpilledRecordsRed
}

// TaskReport is what the MRONLINE monitor receives when a task attempt
// finishes (paper §3: per-task progress, CPU and memory utilization,
// spilled records).
type TaskReport struct {
	JobName string
	Type    TaskType
	ID      int
	Attempt int
	Config  mrconf.Config
	Node    string

	Start, End float64
	// CPUUtil is consumed CPU over the container's vcore allowance.
	CPUUtil float64
	// MemUtil is peak resident memory over the container's memory.
	MemUtil float64
	// SpilledRecords and OutputRecords feed the Eq. 1 cost ratio
	// (spills over map-output/combiner-output records).
	SpilledRecords float64
	OutputRecords  float64
	// DataMB is the task's data volume: post-combiner output for maps,
	// shuffle input for reduces. The §6 tuning rules size buffers from
	// this.
	DataMB float64
	// RawOutputMB is the Hadoop "Map output bytes" counter: the
	// pre-combiner map output, which is what fills the sort buffer.
	RawOutputMB float64
	// Spills is the map-side spill-file count (0 for reduces).
	Spills int
	OOM    bool
	// Failed marks a non-OOM attempt failure (injected fault, lost
	// input). The monitor discards such samples like OOM ones.
	Failed bool
}

// Duration returns the attempt's wall-clock run time.
func (r TaskReport) Duration() float64 { return r.End - r.Start }

// WorkingSetMB estimates the heap the attempt's user code used beside
// its buffer: the peak heap, less the JVM base and the sort buffer
// (maps) or the shuffle buffer (reduces). It is negative when the peak
// stayed below the JVM base and the buffer.
func (r TaskReport) WorkingSetMB() float64 {
	if r.Type == MapTask {
		peakHeap := float64(r.MemUtil * r.Config.MapMemMB() * mrconf.HeapFraction)
		return peakHeap - JVMBaseMB - r.Config.SortMB()
	}
	peakHeap := float64(r.MemUtil * r.Config.ReduceMemMB() * mrconf.HeapFraction)
	return peakHeap - JVMBaseMB - float64(r.Config.ShuffleBufferPct()*r.Config.ReduceHeapMB())
}

// Controller is MRONLINE's hook into the application master. The
// default PassthroughController runs the job exactly as stock YARN
// would.
type Controller interface {
	// TaskConfig returns the configuration for a task attempt about to
	// be requested; the container is shaped accordingly. This is the
	// dynamic configurator's moment: per-task configs, different-sized
	// containers.
	TaskConfig(t *Task, base mrconf.Config) mrconf.Config
	// AllowLaunch reports whether the AM may request a container for
	// the next pending task now. Aggressive tuning returns false to
	// hold the wave until the previous one is measured (paper §6.1).
	AllowLaunch(t *Task) bool
	// TaskCompleted delivers the monitor's per-task statistics.
	TaskCompleted(r TaskReport)
	// LiveConfig lets category-3 (on-the-fly) parameters change for a
	// running task at its next decision point; return current to keep.
	LiveConfig(t *Task, current mrconf.Config) mrconf.Config
}

// PassthroughController applies the base configuration to all tasks.
type PassthroughController struct{}

// TaskConfig implements Controller.
func (PassthroughController) TaskConfig(t *Task, base mrconf.Config) mrconf.Config { return base }

// AllowLaunch implements Controller.
func (PassthroughController) AllowLaunch(t *Task) bool { return true }

// TaskCompleted implements Controller.
func (PassthroughController) TaskCompleted(r TaskReport) {}

// LiveConfig implements Controller.
func (PassthroughController) LiveConfig(t *Task, current mrconf.Config) mrconf.Config {
	return current
}

// Result summarizes a finished job. Failed == (Err != nil): a failed
// job gave up when a task ran out of attempts, and its Duration is the
// time it gave up, not a completion time. Code outside this package
// reads the time through Secs, which reports the failure with it.
type Result struct {
	JobName  string
	Duration float64
	Counters Counters
	Reports  []TaskReport
	Failed   bool
	Err      error

	// Utilization summaries per task type (averages over reports),
	// used for Figs 15 and 16.
	MapCPUUtil, MapMemUtil       float64
	ReduceCPUUtil, ReduceMemUtil float64
}

// Secs returns the job's run time in seconds and whether the job
// completed. For a failed job (ok false) secs is the time it gave up,
// which no caller may score as a job time.
func (r Result) Secs() (secs float64, ok bool) { return r.Duration, !r.Failed }

// Spec describes a job submission.
type Spec struct {
	Name       string
	Benchmark  workload.Benchmark
	BaseConfig mrconf.Config
	Controller Controller
	// SlowstartFraction of maps must finish before reduces launch
	// (category-1 parameter, default 0.05 as in Hadoop).
	SlowstartFraction float64
	// MaxAttempts per task before the job fails (Hadoop default 4).
	MaxAttempts int
	// Trace receives the job's execution timeline. Any trace.Sink
	// works: a *trace.Recorder retains every event, trace.Discard (the
	// default for nil) drops them, and the streaming/ring/stats sinks
	// keep memory flat over long job streams.
	Trace trace.Sink
	// Speculation enables straggler mitigation when non-nil (see
	// DefaultSpeculation). Nil matches the paper's experimental setup.
	Speculation *SpeculationConfig
	// Faults, when non-nil, lets a fault injector perturb the job's
	// runtime (see internal/faults). Nil costs nothing: no hooks are
	// consulted and no extra events or RNG draws occur.
	Faults FaultHooks
	// Pool, when non-nil, recycles the job's Job/Task objects after
	// onDone returns, so a long stream of submissions stops allocating
	// per-job state. See Pool for the (strict) ownership contract.
	Pool *Pool
	// ReleaseInputOnFinish deletes the job's HDFS input file from the
	// namenode when the job completes, keeping block registries flat
	// over a continuous stream. Leave false for fault experiments:
	// post-finish re-replication of a finished job's blocks is part of
	// the modeled behavior there.
	ReleaseInputOnFinish bool
}

// FaultHooks is the job-runtime side of fault injection. The injector
// (internal/faults) implements it; the hooks draw from the injector's
// dedicated RNG stream so enabling them never perturbs the job's own
// randomness.
type FaultHooks interface {
	// FetchFails reports whether the next shuffle fetch attempt should
	// fail (and be retried after a backoff).
	FetchFails() bool
	// AttemptFailDelay returns, for a task attempt that just started, a
	// delay after which the attempt is killed (simulating disk errors,
	// JVM crashes); ok=false lets the attempt run normally.
	AttemptFailDelay(taskType string, taskID, attempt int) (delay float64, ok bool)
}

func (s *Spec) withDefaults() Spec {
	out := *s
	if out.Controller == nil {
		out.Controller = PassthroughController{}
	}
	if out.SlowstartFraction == 0 {
		out.SlowstartFraction = 0.05
	}
	if out.MaxAttempts == 0 {
		out.MaxAttempts = 4
	}
	if out.Name == "" {
		out.Name = out.Benchmark.Name
	}
	if out.Trace == nil {
		out.Trace = trace.Discard
	}
	return out
}

func (t *Task) String() string {
	return fmt.Sprintf("%s/%s-%05d", t.Job.Name, t.Type, t.ID)
}

// Runtime model constants. These are substrate calibration, not tuning
// parameters: they mirror fixed costs of the paper's testbed.
const (
	// JVMBaseMB is heap consumed by the task JVM before buffers.
	JVMBaseMB = 150
	// TaskLaunchOverheadSecs covers JVM start and localization.
	TaskLaunchOverheadSecs = 1.0
	// MapComputeParallelism is the usable core parallelism of a map
	// task (single-threaded user code plus JVM background work).
	MapComputeParallelism = 1.0
	// ReduceComputeParallelism mirrors the above for reduce user code.
	ReduceComputeParallelism = 1.0
	// ShuffleStreamMBps is the per-copy-thread fetch throughput; a
	// reducer's aggregate shuffle rate is capped at parallelcopies
	// times this (before NIC contention).
	ShuffleStreamMBps = 8.0
	// MinFetchChunkMB batches shuffle fetches so that one simulated
	// flow covers many segment copies.
	MinFetchChunkMB = 32.0
	// CrossRackFraction of shuffle traffic traverses the rack uplink
	// (partitions are spread uniformly over both racks).
	CrossRackFraction = 0.5
	// FetchRetryDelaySecs is the backoff before a reducer retries a
	// failed shuffle fetch.
	FetchRetryDelaySecs = 1.0
	// BurstFloorCores is the minimum CPU a container can use
	// regardless of its vcore allowance: vcore enforcement uses
	// cgroup cpu.shares-style soft limits that still let a starved
	// container burst to half a core when the node has idle cycles.
	BurstFloorCores = 0.5
	// PipelineEfficiencyHighSpillPct discounts spill/compute overlap
	// when sort.spill.percent leaves too little headroom (>0.9) and
	// the collector blocks on the spill thread.
	PipelineEfficiencyHighSpillPct = 0.3
)

// Summary renders the counters in jobhistory style.
func (c Counters) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Map input MB=%.0f\n", c.MapInputMB)
	fmt.Fprintf(&b, "Map output records=%.3g (combine output=%.3g)\n", c.MapOutputRecords, c.CombineOutputRecs)
	fmt.Fprintf(&b, "Map output MB=%.0f\n", c.MapOutputMB)
	fmt.Fprintf(&b, "Spilled records=%.3g (map %.3g, reduce %.3g)\n",
		c.SpilledRecords(), c.SpilledRecordsMap, c.SpilledRecordsRed)
	fmt.Fprintf(&b, "Reduce input MB=%.0f, output MB=%.0f\n", c.ReduceInputMB, c.OutputMB)
	fmt.Fprintf(&b, "Data-local maps=%d, rack-local=%d, off-rack=%d\n",
		c.NodeLocalMaps, c.RackLocalMaps, c.OffRackMaps)
	if c.OOMKills > 0 {
		fmt.Fprintf(&b, "OOM kills=%d\n", c.OOMKills)
	}
	if c.SpeculativeLaunches > 0 {
		fmt.Fprintf(&b, "Speculative: launched=%d won=%d killed=%d\n",
			c.SpeculativeLaunches, c.SpeculativeWins, c.SpeculativeKills)
	}
	if c.TaskFailures > 0 {
		fmt.Fprintf(&b, "Failed task attempts=%d\n", c.TaskFailures)
	}
	if c.NodeLossKills > 0 {
		fmt.Fprintf(&b, "Attempts lost to node failures=%d\n", c.NodeLossKills)
	}
	if c.MapsReExecuted > 0 {
		fmt.Fprintf(&b, "Re-executed maps=%d\n", c.MapsReExecuted)
	}
	return b.String()
}
