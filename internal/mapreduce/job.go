package mapreduce

import (
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
	failErr   error
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
	j.app = rm.Submit(s.Name, s.Weight)
	// Node-loss notifications drive map-output re-execution (the AM's
	// response to reducer fetch failures against a dead host).
	j.app.OnNodeLost = j.nodeLost

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
		shares[i] = math.Exp(-sigma*sigma/2 + sigma*rrng.NormFloat64())
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
	j.eng.After(0, j.pump)
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
	slots := 2 * j.rm.TotalContainerMemMB() / memMB
	if slots < 36 {
		slots = 36
	}
	return slots
}

func (j *Job) reduceHeadroomOK(memMB float64) bool {
	if j.completedMaps == len(j.mapTasks) {
		return true
	}
	limit := ReduceHeadroomFraction * j.rm.TotalContainerMemMB()
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
		// The RM calls neither callback once the job's app has finished
		// (j.finish calls app.Finish), so t.Job is still the job that
		// made the request, even for a pooled task: a container that
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
		t.onNodeLostCB = func(c *yarn.Container) { t.Job.taskLostNode(t) }
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

// track registers an attempt's in-flight flows for kill support.
func (t *Task) track(flows ...*cluster.Flow) {
	t.liveFlows = append(t.liveFlows, flows...)
}

// trackOp registers an attempt's in-flight HDFS operation for kill
// support.
func (t *Task) trackOp(op canceler) {
	t.liveOps = append(t.liveOps, op)
}

// cancelWork aborts everything an attempt has in flight. The tracking
// slices keep their capacity for the next attempt; the canceled flows
// are dropped, not recycled. A succeeded attempt's flows are never
// reached here: recycleFlows emptied liveFlows at the success, so a
// later attempt of the same task (a map re-executed after its output
// was lost) cancels only its own flows, never a recycled one that now
// serves another attempt.
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

// recycleFlows hands a succeeded attempt's flows back to the cluster's
// flow free list and empties liveFlows, keeping its capacity. Every
// tracked flow has finished by the time the attempt succeeds (its last
// phase's join fired, and each earlier phase's join fired before that),
// and liveFlows is their only holder: the fabric drops its own
// references on completion, and nothing else in this package retains a
// *cluster.Flow. Pooled or not, later attempts on the same cluster then
// start their flows from the recycled objects. HDFS-internal flows live
// inside liveOps' operation objects and are left alone.
func (t *Task) recycleFlows() {
	for _, f := range t.liveFlows {
		f.Recycle()
	}
	t.liveFlows = clearSlice(t.liveFlows)
}

// finishAttempt handles bookkeeping common to success and failure.
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
	t.recycleFlows()
	logical := t.logical()
	if logical.logicalDone {
		// The twin already won; this copy's work is discarded.
		j.releaseTask(t)
		return
	}
	logical.logicalDone = true
	if t.specOrigin != nil {
		j.counters.SpeculativeWins++
		j.liveShadows--
		t.specOrigin.specCopy = nil
	}
	if other := t.otherCopy(); other != nil {
		j.killAttempt(other)
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
			j.wakeAllReducers()
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

// taskFailed handles an OOM-killed attempt: re-request (with a fresh
// configuration from the controller) up to MaxAttempts. A speculative
// copy that OOMs is simply dropped — its original is still running.
func (j *Job) taskFailed(t *Task, reason error) {
	if j.finished || t.killed {
		return
	}
	if t.specOrigin != nil {
		t.killed = true
		t.State = TaskFailed
		j.counters.OOMKills++
		j.liveShadows--
		t.specOrigin.specCopy = nil
		if t.Type == ReduceTask {
			j.reduceMemHeld -= t.Config.ReduceMemMB()
		}
		j.releaseTask(t)
		j.pump()
		return
	}
	t.EndTime = j.eng.Now()
	t.oomCount++
	j.traceTask(t, trace.TaskOOM)
	j.counters.OOMKills++
	r := j.report(t, true)
	j.releaseTask(t)
	j.reports = append(j.reports, r)
	j.ctrl.TaskCompleted(r)
	if t.Type == ReduceTask {
		j.reduceMemHeld -= t.Config.ReduceMemMB()
		// Drop any reducer runtime state; the retry re-registers.
		j.dropActiveReducer(t)
	}
	t.Attempt++
	if t.Attempt >= j.spec.MaxAttempts {
		j.finish(fmt.Errorf("mapreduce: task %s failed %d attempts: %w", t, t.Attempt, reason))
		return
	}
	t.State = TaskPending
	j.requestContainer(t)
}

func (j *Job) finish(err error) {
	if j.finished {
		return
	}
	j.finished = true
	j.failed = err != nil
	j.failErr = err
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
		j.eng.After(0, func() { p.recycleJob(j) })
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
