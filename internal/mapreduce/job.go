package mapreduce

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/hdfs"
	"repro/internal/mrconf"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/yarn"
)

// Job is a running MapReduce job: the application-master logic plus
// all task state. Create one with Submit.
type Job struct {
	Name string

	spec Spec
	// baseRepaired is Repair(spec.BaseConfig), computed once so every
	// task whose controller returns the base config unchanged (the
	// common case on the serving path) skips the per-task Repair.
	baseRepaired mrconf.Config
	bench        workload.Benchmark
	eng          *sim.Engine
	rm           *yarn.ResourceManager
	fs           *hdfs.FileSystem
	app          *yarn.App
	ctrl         Controller

	inputFile   *hdfs.File
	mapTasks    []*Task
	reduceTasks []*Task
	// reduceShare is each reducer's fraction of the shuffle volume
	// (skewed partition sizes, normalized to sum 1).
	reduceShare []float64

	nextMapReq    int
	nextReduceReq int
	// reduceMemHeld tracks memory committed to reduce containers while
	// maps are still pending, for the anti-deadlock headroom policy.
	reduceMemHeld float64

	completedMaps    int
	completedReduces int
	totalMapOutMB    float64

	activeReducers []*reduceRun

	liveShadows int

	counters  Counters
	reports   []TaskReport
	startTime float64
	finished  bool
	failed    bool
	onDone    func(Result)

	// mapSkewRNG/reduceRNG are the job's skew streams. They survive
	// pool recycling (a math/rand source is ~5 KB) and are re-seeded
	// per submission via sim.Source.StreamInto, which reproduces
	// Stream's output exactly.
	mapSkewRNG *rand.Rand
	reduceRNG  *rand.Rand

	// gen counts the job object's recycles (see Pool). Every closure
	// the job schedules captures it and does nothing once it has moved
	// on, so a timer that outlives the job cannot reach its successor.
	gen uint64

	// pumpCB, nodeLostCB and recycleCB are j.pump, j.nodeLost and the
	// pool hand-back, bound once per job object.
	pumpCB     func()
	nodeLostCB func(*cluster.Node)
	recycleCB  func()
}

// ReduceHeadroomFraction caps reduce-container memory at this share of
// cluster container memory while map tasks are still incomplete,
// preventing the classic slowstart deadlock where reducers occupy
// every container and starve the maps they are waiting on.
const ReduceHeadroomFraction = 0.5

// Submit creates the job's input file in HDFS, registers the
// application with the resource manager, and starts scheduling. onDone
// fires (once) when the job completes or fails.
func Submit(rm *yarn.ResourceManager, fs *hdfs.FileSystem, spec Spec, onDone func(Result)) *Job {
	s := spec.withDefaults()
	j := s.Pool.getJob()
	j.Name = s.Name
	j.spec = s
	j.bench = s.Benchmark
	j.eng = rm.Engine()
	j.rm = rm
	j.fs = fs
	j.ctrl = s.Controller
	j.startTime = j.eng.Now()
	j.onDone = onDone
	j.baseRepaired = mrconf.Repair(s.BaseConfig)
	j.app = rm.Submit(s.Name)
	if j.pumpCB == nil {
		j.pumpCB, j.nodeLostCB = j.pump, j.nodeLost
	}
	// Node-loss notifications drive map-output re-execution (the AM's
	// response to reducer fetch failures against a dead host).
	j.app.OnNodeLost = j.nodeLostCB

	src := sim.NewSource(uint64(len(s.Name))*1e9 + uint64(s.Benchmark.NumMaps)).Sub("job:" + s.Name)
	if s.Benchmark.InputSizeMB > 0 {
		j.inputFile = fs.CreateWithBlockSize(s.Name+"/input", s.Benchmark.InputSizeMB, s.Benchmark.SplitSizeMB())
	}
	j.mapSkewRNG = src.StreamInto(j.mapSkewRNG, "map-skew")
	skews := s.Benchmark.Splits(j.mapSkewRNG)
	for i := 0; i < s.Benchmark.NumMaps; i++ {
		t := s.Pool.getTask()
		t.Job, t.Type, t.ID, t.Skew = j, MapTask, i, skews[i]
		if j.inputFile != nil && i < len(j.inputFile.Blocks) {
			t.Split = j.inputFile.Blocks[i]
		}
		j.mapTasks = append(j.mapTasks, t)
	}
	j.reduceRNG = src.StreamInto(j.reduceRNG, "reduce-skew")
	rrng := j.reduceRNG
	shares := j.reduceShare
	if cap(shares) < s.Benchmark.NumReduces {
		shares = make([]float64, s.Benchmark.NumReduces)
	} else {
		shares = shares[:s.Benchmark.NumReduces]
	}
	total := 0.0
	for i := range shares {
		cv := 0.15
		sigma := math.Sqrt(math.Log(1 + cv*cv))
		shares[i] = math.Exp(float64(-sigma*sigma/2) + float64(sigma*rrng.NormFloat64()))
		total += shares[i]
	}
	for i := range shares {
		shares[i] /= total
	}
	j.reduceShare = shares
	for i := 0; i < s.Benchmark.NumReduces; i++ {
		t := s.Pool.getTask()
		t.Job, t.Type, t.ID, t.Skew = j, ReduceTask, i, shares[i]*float64(s.Benchmark.NumReduces)
		j.reduceTasks = append(j.reduceTasks, t)
	}

	// One report per task, plus one per failed attempt: presizing spares
	// the append regrowth of a job with thousands of tasks.
	if n := s.Benchmark.NumMaps + s.Benchmark.NumReduces; cap(j.reports) < n {
		j.reports = make([]TaskReport, 0, n)
	}

	j.spec.Trace.Add(trace.Event{Time: j.eng.Now(), Job: j.Name, Kind: trace.JobSubmit,
		Detail: fmt.Sprintf("%d maps, %d reduces", len(j.mapTasks), len(j.reduceTasks))})
	// The job cannot finish, and so cannot be recycled, before this
	// first pump has run: the bound callback is never queued twice.
	j.eng.After(0, j.pumpCB)
	j.scheduleSpeculation()
	return j
}

// traceTask emits one task lifecycle event.
func (j *Job) traceTask(t *Task, kind trace.Kind) {
	node := ""
	if t.container != nil {
		node = t.container.Node.Name
	}
	j.spec.Trace.Add(trace.Event{
		Time: j.eng.Now(), Job: j.Name, Kind: kind,
		TaskType: t.Type.String(), Task: t.ID, Attempt: t.Attempt, Node: node,
	})
}

// pump requests containers for every launchable pending task: maps in
// order, then reduces once slowstart has been reached, subject to the
// controller's launch gate and the reduce headroom policy.
func (j *Job) pump() {
	if j.finished {
		return
	}
	// Real AMs ramp container requests with heartbeats instead of
	// enqueueing every task at submission; modelling that window is
	// what lets MRONLINE bind a task's configuration shortly before
	// launch (the per-task configuration files of §4).
	mapWindow := j.requestWindow(j.spec.BaseConfig.MapMemMB())
	for j.nextMapReq < len(j.mapTasks) && float64(j.nextMapReq-j.completedMaps) < mapWindow {
		t := j.mapTasks[j.nextMapReq]
		if !j.ctrl.AllowLaunch(t) {
			break
		}
		j.requestContainer(t)
		j.nextMapReq++
	}
	slowstartMet := float64(j.completedMaps) >= j.spec.SlowstartFraction*float64(len(j.mapTasks))
	if len(j.mapTasks) == 0 {
		slowstartMet = true
	}
	if slowstartMet {
		reduceWindow := j.requestWindow(j.spec.BaseConfig.ReduceMemMB())
		for j.nextReduceReq < len(j.reduceTasks) && float64(j.nextReduceReq-j.completedReduces) < reduceWindow {
			t := j.reduceTasks[j.nextReduceReq]
			if !j.ctrl.AllowLaunch(t) {
				break
			}
			cfg := j.taskConfig(t)
			if !j.reduceHeadroomOK(cfg.ReduceMemMB()) {
				break
			}
			j.requestContainerWithConfig(t, cfg)
			j.nextReduceReq++
		}
	}
}

// requestWindow caps requested-but-unfinished tasks at roughly twice
// what the cluster can run at once for the given container size.
func (j *Job) requestWindow(memMB float64) float64 {
	slots := 2 * j.rm.Cluster().TotalContainerMemMB() / memMB
	if slots < 36 {
		slots = 36
	}
	return slots
}

func (j *Job) reduceHeadroomOK(memMB float64) bool {
	if j.completedMaps == len(j.mapTasks) {
		return true
	}
	limit := ReduceHeadroomFraction * j.rm.Cluster().TotalContainerMemMB()
	return j.reduceMemHeld+memMB <= limit
}

// taskConfig asks the controller for the attempt's configuration and
// repairs it against the dependency rules. When the controller hands
// the base config back untouched (identity-preserved, the default
// controller's behavior), the repair was already done at submission.
func (j *Job) taskConfig(t *Task) mrconf.Config {
	cfg := j.ctrl.TaskConfig(t, j.spec.BaseConfig)
	if cfg.Same(j.spec.BaseConfig) {
		return j.baseRepaired
	}
	return mrconf.Repair(cfg)
}

func (j *Job) requestContainer(t *Task) {
	j.requestContainerWithConfig(t, j.taskConfig(t))
}

func (j *Job) requestContainerWithConfig(t *Task, cfg mrconf.Config) {
	t.Config = cfg
	t.State = TaskRequested
	var shape yarn.Resource
	var prefs []*cluster.Node
	if t.Type == MapTask {
		shape = yarn.Resource{MemMB: t.Config.MapMemMB(), VCores: t.Config.MapVcores()}
		if t.Split != nil {
			prefs = t.Split.Replicas
		}
	} else {
		shape = yarn.Resource{MemMB: t.Config.ReduceMemMB(), VCores: t.Config.ReduceVcores()}
		j.reduceMemHeld += shape.MemMB
	}
	if t.onAllocCB == nil {
		t.bind()
	}
	t.req = yarn.Request{
		Resource:       shape,
		PreferredNodes: prefs,
		OnAllocate:     t.onAllocCB,
		OnNodeLost:     t.onNodeLostCB,
	}
	t.pendingReq = &t.req
	j.app.Request(&t.req)
}

// bind makes the task object's callbacks, once. Each captures only the
// Task and resolves the owning Job when called, which keeps it valid
// when a pooled task is adopted by a later job.
func (t *Task) bind() {
	// The RM calls neither container callback once the job's app has
	// finished (j.finish calls app.Finish), so t.Job is still the job
	// that made the request, even for a pooled task: a container that
	// outlives its job never reaches a recycled task.
	t.onAllocCB = func(c *yarn.Container) {
		j := t.Job
		t.pendingReq = nil
		if t.killed {
			j.rm.Release(c)
			return
		}
		if t.Type == MapTask {
			j.runMap(t, c)
		} else {
			j.runReduce(t, c)
		}
	}
	t.onNodeLostCB = func(c *yarn.Container) { t.Job.endAttempt(t, endNodeLost, nil) }
	t.splitLostCB = func() { t.Job.endAttempt(t, endFailed, errSplitLost) }
	t.joinCB = func() { t.Job.phaseDone(t) }
}

// beginPhase starts a phase join of n flows or ops; the caller counts
// any it adds after.
func (t *Task) beginPhase(p phase, n int) {
	t.phase, t.left = p, n
}

// phaseDone counts one completed flow or op of t's current phase and,
// at the last, runs the phase that follows.
func (j *Job) phaseDone(t *Task) {
	t.left--
	if t.left > 0 {
		return
	}
	switch t.phase {
	case phaseMap:
		j.mapMerge(t)
	case phaseMerge:
		j.mapFinish(t)
	case phaseFetch:
		j.fetched(t.run)
	case phaseSort:
		j.reduceOutput(t.run)
	case phaseWrite:
		j.reduceFinish(t.run)
	}
}

// after runs action(j, t) delay seconds from now through timer tm of
// t, unless by then the job object has been recycled or the attempt
// has moved on. The event runs tm's callback, bound once per Task
// object, under the guard stored in tm. If tm's event of an earlier
// attempt is still queued (the attempt was requeued while it waited),
// tm's guard is taken, and this event carries its own in a closure.
func (j *Job) after(t *Task, tm *taskTimer, delay float64, action func(*Job, *Task)) {
	if tm.queued {
		att, g := t.Attempt, j.gen
		j.eng.After(delay, func() {
			if j.gen == g && t.Attempt == att {
				action(j, t)
			}
		})
		return
	}
	if tm.fn == nil {
		tm.fn = func() {
			tm.queued = false
			if tm.job.gen == tm.gen && t.Attempt == tm.attempt {
				action(tm.job, t)
			}
		}
	}
	tm.queued, tm.job, tm.gen, tm.attempt = true, j, j.gen, t.Attempt
	j.eng.After(delay, tm.fn)
}

// track registers an attempt's in-flight flow for kill support.
func (t *Task) track(f *cluster.Flow) {
	t.liveFlows = append(t.liveFlows, f)
}

// trackOp registers an attempt's in-flight HDFS operation for kill
// support.
func (t *Task) trackOp(op *hdfs.Op) {
	t.liveOps = append(t.liveOps, op)
}

// cancelWork aborts everything an attempt has in flight. The tracking
// slices keep their capacity for the next attempt; the canceled flows
// and ops are dropped, not recycled. A succeeded attempt's flows and
// ops are never reached here: recycleWork emptied liveFlows and
// liveOps at the success, so a later attempt of the same task (a map
// re-executed after its output was lost) cancels only its own, never a
// recycled one that now serves another attempt.
func (j *Job) cancelWork(t *Task) {
	for _, f := range t.liveFlows {
		if f != nil {
			f.Cancel()
		}
	}
	t.liveFlows = clearSlice(t.liveFlows)
	for _, op := range t.liveOps {
		op.Cancel()
	}
	t.liveOps = clearSlice(t.liveOps)
}

// recycleWork hands a succeeded attempt's flows back to the cluster's
// flow free list and its HDFS ops to the file system's op free list,
// and empties liveFlows and liveOps, keeping their capacity. Every
// tracked flow and op has finished by the time the attempt succeeds
// (its last phase's join fired, and each earlier phase's join fired
// before that), and the task is their only holder: the fabric drops
// its own references on completion, an op recycles its own flows, and
// nothing else in this package retains a *cluster.Flow or an *hdfs.Op.
// Pooled or not, later attempts on the same cluster then start their
// flows and ops from the recycled objects.
func (t *Task) recycleWork() {
	for _, f := range t.liveFlows {
		f.Recycle()
	}
	t.liveFlows = clearSlice(t.liveFlows)
	for _, op := range t.liveOps {
		op.Recycle()
	}
	t.liveOps = clearSlice(t.liveOps)
}

// releaseTask returns the attempt's container, if it holds one.
func (j *Job) releaseTask(t *Task) {
	if t.container != nil {
		j.rm.Release(t.container)
		t.container = nil
	}
}

func (j *Job) report(t *Task, oom bool) TaskReport {
	duration := t.EndTime - t.StartTime
	var contMem float64
	var coreCap float64
	if t.Type == MapTask {
		contMem = t.Config.MapMemMB()
		coreCap = float64(t.Config.MapVcores())
	} else {
		contMem = t.Config.ReduceMemMB()
		coreCap = float64(t.Config.ReduceVcores())
	}
	// Core ratio is per-node on heterogeneous clusters.
	ratio := j.rm.Cluster().Nodes[0].CoreRatio()
	if t.container != nil {
		ratio = t.container.Node.CoreRatio()
	}
	cpuUtil, memUtil := 0.0, 0.0
	if duration > 0 {
		cpuUtil = t.cpuSecs / (coreCap * ratio * duration)
	}
	if contMem > 0 {
		memUtil = t.peakMemMB / contMem
	}
	if cpuUtil > 1 {
		cpuUtil = 1
	}
	if memUtil > 1 {
		memUtil = 1
	}
	node := ""
	if t.container != nil {
		node = t.container.Node.Name
	}
	return TaskReport{
		JobName: j.Name, Type: t.Type, ID: t.ID, Attempt: t.Attempt,
		Config: t.Config, Node: node,
		Start: t.StartTime, End: t.EndTime,
		CPUUtil: cpuUtil, MemUtil: memUtil,
		SpilledRecords: t.spilledRec, OutputRecords: t.outputRec,
		DataMB: t.dataMB, RawOutputMB: t.rawOutMB, Spills: t.numSpills,
		OOM: oom,
	}
}

// taskSucceeded finalizes a successful attempt. With speculation, the
// first copy to arrive here wins; its twin is killed.
func (j *Job) taskSucceeded(t *Task) {
	if j.finished || t.killed {
		return
	}
	t.recycleWork()
	t.logical().logicalDone = true
	if t.specOrigin != nil {
		j.counters.SpeculativeWins++
		j.liveShadows--
		t.specOrigin.specCopy = nil
	}
	if other := t.otherCopy(); other != nil {
		j.endAttempt(other, endKilled, nil)
	}
	t.State = TaskSucceeded
	t.EndTime = j.eng.Now()
	j.traceTask(t, trace.TaskFinish)
	r := j.report(t, false)
	j.releaseTask(t)
	j.reports = append(j.reports, r)
	j.ctrl.TaskCompleted(r)
	if t.Type == MapTask {
		j.completedMaps++
		if j.completedMaps == len(j.mapTasks) {
			// The last map releases reducers waiting on the batching
			// threshold.
			j.wakeReducers()
		}
	} else {
		j.completedReduces++
		j.reduceMemHeld -= t.Config.ReduceMemMB()
	}
	if j.completedMaps == len(j.mapTasks) && j.completedReduces == len(j.reduceTasks) {
		j.finish(nil)
		return
	}
	j.pump()
}

// ending is how an attempt ends other than by success.
type ending uint8

const (
	endOOM      ending = iota // its heap cannot hold its buffers
	endFailed                 // an injected fault or a lost input split
	endNodeLost               // the RM declared its host lost
	endKilled                 // a speculative loser: its twin succeeded
)

// The reasons a failed attempt carries; their texts end the job's error
// once its task has failed MaxAttempts times.
var (
	errOOM       = errors.New("container killed: out of memory")
	errInjected  = errors.New("injected")
	errSplitLost = errors.New("input split lost")
)

// endAttempt ends a requested or running attempt in one of the four
// ways other than success, in one fixed order:
//
//  1. its flows and HDFS ops are canceled;
//  2. an OOM or failed attempt of a logical task reports to the
//     controller, its report marked OOM or Failed;
//  3. its reduce headroom and its container go back, except that the
//     RM reclaims a node-lost container itself;
//  4. a failed attempt reports its node to the RM blacklist; an OOM is
//     the configuration's fault, not the node's, and does not;
//  5. a speculative copy or a killed attempt is dropped; any other
//     attempt's logical task retries, after an OOM or a failure with a
//     fresh configuration and against MaxAttempts, after a node loss
//     with the same configuration and no penalty.
//
// Every ending is counted and traced, except that a speculative
// copy's OOM is counted only. Of these steps the engine sees the
// cancels, the release and the retry request or pump, in that order; a
// node-lost attempt releases nothing, and a node-lost copy does not
// pump.
//
// No guard here reads logicalDone. An attempt whose logical task is
// done either succeeded itself or was killed as the loser:
// taskSucceeded kills the twin in the call that marks the task done,
// and reexecMap clears both marks when it reopens the task.
func (j *Job) endAttempt(t *Task, how ending, reason error) {
	if j.finished || t.killed || t.State == TaskSucceeded {
		return
	}
	j.cancelWork(t)
	if t.pendingReq != nil {
		// Only a killed twin can still be queued at the RM; a request
		// already placed is no longer pending, and CancelRequest leaves
		// it alone.
		j.app.CancelRequest(t.pendingReq)
		t.pendingReq = nil
	}
	// An OOM or a failure is the attempt's own doing: it is reported,
	// traced with its node, and counts against MaxAttempts.
	own := how == endOOM || how == endFailed
	var node *cluster.Node
	ev := trace.Event{Time: j.eng.Now(), Job: j.Name, TaskType: t.Type.String(), Task: t.ID, Attempt: t.Attempt}
	if t.container != nil {
		node = t.container.Node
		if own {
			ev.Node = node.Name
		}
	}
	switch how {
	case endOOM:
		j.counters.OOMKills++
		ev.Kind = trace.TaskOOM
	case endFailed:
		j.counters.TaskFailures++
		ev.Kind, ev.Detail = trace.TaskFailed, reason.Error()
	case endNodeLost:
		j.counters.NodeLossKills++
		j.rm.FaultCounters().AttemptsKilledNodeLoss++
		ev.Kind, ev.Detail = trace.TaskKilled, "node-lost"
	case endKilled:
		j.counters.SpeculativeKills++
		ev.Kind = trace.TaskKilled
	}
	if how != endOOM || t.specOrigin == nil {
		j.spec.Trace.Add(ev)
	}
	if own && t.specOrigin == nil {
		t.EndTime = j.eng.Now()
		r := j.report(t, how == endOOM)
		r.Failed = how == endFailed
		j.reports = append(j.reports, r)
		j.ctrl.TaskCompleted(r)
	}
	if t.Type == ReduceTask {
		j.reduceMemHeld -= t.Config.ReduceMemMB()
		j.dropActiveReducer(t)
	}
	if how == endNodeLost {
		t.container = nil // the RM reclaims it itself
	} else {
		j.releaseTask(t)
	}
	if how == endFailed && node != nil {
		j.rm.ReportTaskFailure(node)
	}
	if t.specOrigin != nil || how == endKilled {
		t.killed = true
		t.State = TaskFailed
		if t.specOrigin != nil {
			j.liveShadows--
			t.specOrigin.specCopy = nil
		}
		if how != endNodeLost {
			j.pump()
		}
		return
	}
	t.Attempt++
	switch {
	case how == endNodeLost:
		j.requestContainerWithConfig(t, t.Config)
	case t.Attempt >= j.spec.MaxAttempts:
		j.finish(fmt.Errorf("mapreduce: task %s failed %d attempts: %w", t, t.Attempt, reason))
	default:
		j.requestContainer(t)
	}
}

// dropActiveReducer unregisters a reducer's shuffle-phase state.
func (j *Job) dropActiveReducer(t *Task) {
	for i, rr := range j.activeReducers {
		if rr.task == t {
			j.activeReducers = append(j.activeReducers[:i], j.activeReducers[i+1:]...)
			break
		}
	}
}

func (j *Job) finish(err error) {
	if j.finished {
		return
	}
	j.finished = true
	j.failed = err != nil
	j.spec.Trace.Add(trace.Event{Time: j.eng.Now(), Job: j.Name, Kind: trace.JobFinish,
		Detail: fmt.Sprintf("failed=%v", j.failed)})
	j.app.Finish()
	res := Result{
		JobName:  j.Name,
		Duration: j.eng.Now() - j.startTime,
		Counters: j.counters,
		Reports:  j.reports,
		Failed:   j.failed,
		Err:      err,
	}
	var mc, mm, rc, rmu metricAvg
	for _, r := range j.reports {
		if r.OOM || r.Failed {
			continue
		}
		if r.Type == MapTask {
			mc.add(r.CPUUtil)
			mm.add(r.MemUtil)
		} else {
			rc.add(r.CPUUtil)
			rmu.add(r.MemUtil)
		}
	}
	res.MapCPUUtil, res.MapMemUtil = mc.avg(), mm.avg()
	res.ReduceCPUUtil, res.ReduceMemUtil = rc.avg(), rmu.avg()
	if j.spec.ReleaseInputOnFinish && j.inputFile != nil {
		j.fs.Remove(j.inputFile)
		j.inputFile = nil
	}
	if j.onDone != nil {
		j.onDone(res)
	}
	// After a clean finish the job's timers may still be queued (fault,
	// OOM, fetch-retry, speculation), but each is guarded by j.gen,
	// which recycling bumps, so the objects are safe to recycle. The
	// recycle is deferred one zero-delay event so callers still on the
	// stack (mapFinish's reducer wake-up, onDone itself) never see a
	// reset job. A failed job may still have attempts in flight and is
	// never recycled. See Pool.
	if p := j.spec.Pool; p != nil && !j.failed {
		if j.recycleCB == nil {
			j.recycleCB = func() { j.spec.Pool.recycleJob(j) }
		}
		j.eng.After(0, j.recycleCB)
	}
}

type metricAvg struct {
	sum float64
	n   int
}

func (m *metricAvg) add(v float64) { m.sum += v; m.n++ }
func (m *metricAvg) avg() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// mergePasses returns how many full read+write passes over the data
// the merge phase performs for the given spill count and fan-in: zero
// for a single spill, one final merge up to factor spills, and extra
// intermediate passes beyond that (log base factor), the mechanism
// behind the paper's "3x map output records in the worst case".
func mergePasses(numSpills, factor int) int {
	if numSpills <= 1 {
		return 0
	}
	if factor < 2 {
		factor = 2
	}
	return int(math.Ceil(math.Log(float64(numSpills)) / math.Log(float64(factor))))
}
