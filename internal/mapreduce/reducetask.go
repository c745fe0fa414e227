package mapreduce

import (
	"math"

	"repro/internal/mrconf"
	"repro/internal/trace"
	"repro/internal/yarn"
)

// reduceRun holds the runtime state of one reduce attempt. A task
// object keeps one and resets it for each attempt (see reduceMain).
type reduceRun struct {
	task *Task
	// Deferred counter contributions, applied only if this attempt
	// wins (speculative twins must not double-count).
	pendingInMB     float64
	pendingSpillRec float64
	// outMB is the size of the attempt's HDFS output write.
	outMB float64
	// share is this reducer's fraction of total map output.
	share float64
	// fetchedMB has completed fetching; fetchingMB is in flight.
	fetchedMB  float64
	fetchingMB float64
	busy       bool
	shuffled   bool
	// diskFrac of fetched bytes lands on disk (derived from the
	// shuffle buffer configuration).
	diskFrac    float64
	numDiskSegs int
}

// runReduce executes one reduce task attempt: shuffle (as map outputs
// become available), merge/sort, reduce function, and output write.
func (j *Job) runReduce(t *Task, c *yarn.Container) {
	t.State = TaskRunning
	t.StartTime = j.eng.Now()
	t.container = c
	t.cpuSecs = 0
	j.traceTask(t, trace.TaskStart)
	j.armAttemptFault(t)
	j.after(t, &t.launch, TaskLaunchOverheadSecs, (*Job).launched)
}

func (j *Job) reduceMain(t *Task) {
	if j.finished || t.killed {
		return
	}
	if t.container.Node.Down() {
		// The host crashed during launch; the node-loss path requeues.
		return
	}
	t.Config = j.ctrl.LiveConfig(t, t.Config)
	p := j.bench.Profile

	share := j.reduceShare[t.ID]
	estTotalMB := float64(j.bench.ShuffleSizeMB * share)

	heap := t.Config.ReduceHeapMB()
	shuffleBufMB := t.Config.ShuffleBufferPct() * heap
	retainMB := math.Min(math.Min(estTotalMB, shuffleBufMB), t.Config.ReduceInputBufPct()*heap)

	// Peak heap: during shuffle the filled part of the buffer (the
	// shuffle buffer is allocated lazily, segment by segment, unlike
	// the map side's preallocated io.sort.mb array); during reduce the
	// retained bytes plus the user code working set.
	shufflePeak := JVMBaseMB + math.Min(shuffleBufMB, estTotalMB*math.Max(1, t.Skew))
	reducePeak := JVMBaseMB + retainMB + float64(p.ReduceWorkingSetMB*math.Sqrt(math.Max(1, t.Skew)))
	heapNeedMB := math.Max(shufflePeak, reducePeak)
	t.peakMemMB = heapNeedMB / mrconf.HeapFraction

	if heapNeedMB > heap {
		frac := heap / heapNeedMB
		failAfter := math.Max(2, 10*frac)
		j.after(t, &t.oom, failAfter, (*Job).oomKilled)
		return
	}

	// Every earlier attempt of the task object has left activeReducers,
	// and the timers that may still name the run (fetch retries) check
	// their attempt before touching it, so the run can start over.
	r := t.run
	if r == nil {
		r = &reduceRun{}
		t.run = r
	}
	*r = reduceRun{task: t, share: share}

	// Segment routing: average segment size vs the in-memory fetch
	// limit decides whether fetches land in memory or stream to disk.
	segMB := estTotalMB / math.Max(1, float64(len(j.mapTasks)))
	segToMem := segMB <= t.Config.MemoryLimitPct()*shuffleBufMB
	var diskMB float64
	if !segToMem || shuffleBufMB <= 0 {
		diskMB = estTotalMB
		r.numDiskSegs = len(j.mapTasks)
	} else {
		diskMB = math.Max(0, estTotalMB-retainMB)
		flushUnit := t.Config.MergePct() * shuffleBufMB
		if th := t.Config.InmemThreshold(); th > 0 {
			flushUnit = math.Min(flushUnit, float64(th)*segMB)
		}
		flushUnit = math.Max(flushUnit, 1)
		r.numDiskSegs = int(math.Ceil(diskMB / flushUnit))
	}
	if estTotalMB > 0 {
		r.diskFrac = diskMB / estTotalMB
	}

	j.activeReducers = append(j.activeReducers, r)
	j.tryFetch(r)
}

// availableMB returns shuffle bytes ready for this reducer.
func (j *Job) availableMB(r *reduceRun) float64 {
	return float64(j.totalMapOutMB*r.share) - r.fetchedMB - r.fetchingMB
}

// wakeReducers pokes idle reducers after new map output appears.
func (j *Job) wakeReducers() {
	for _, r := range j.activeReducers {
		if !r.busy && !r.shuffled {
			j.tryFetch(r)
		}
	}
}

// tryFetch starts the next batched shuffle fetch for r, or advances to
// the sort phase when everything has arrived.
func (j *Job) tryFetch(r *reduceRun) {
	if j.finished || r.task.killed || r.busy || r.shuffled {
		return
	}
	t := r.task
	if t.container == nil || t.container.Node.Down() {
		return // node crashed; the node-loss path requeues the attempt
	}
	allMapsDone := j.completedMaps == len(j.mapTasks)
	avail := j.availableMB(r)
	if avail <= 1e-9 {
		if allMapsDone && r.fetchingMB == 0 {
			r.shuffled = true
			j.reduceSort(r)
		}
		return
	}
	if !allMapsDone && avail < MinFetchChunkMB {
		return // batch small fetches; a later wake will retry
	}
	if h := j.spec.Faults; h != nil && h.FetchFails() {
		// The fetch attempt failed (dropped connection, bad checksum);
		// back off and retry, like the fetcher's exponential backoff.
		j.rm.FaultCounters().FetchFailures++
		j.spec.Trace.Add(trace.Event{Time: j.eng.Now(), Job: j.Name, Kind: trace.FetchFail,
			TaskType: t.Type.String(), Task: t.ID, Attempt: t.Attempt,
			Node: t.container.Node.Name, Detail: "injected"})
		r.busy = true
		att, g := t.Attempt, j.gen
		j.eng.After(FetchRetryDelaySecs, func() {
			if j.gen != g || j.finished || t.killed || t.Attempt != att {
				return
			}
			r.busy = false
			j.tryFetch(r)
		})
		return
	}
	chunk := avail
	r.busy = true
	r.fetchingMB = chunk
	rateCap := float64(t.Config.ParallelCopies()) * ShuffleStreamMBps

	diskPart := chunk * r.diskFrac
	t.beginPhase(phaseFetch, 1)
	first, second := j.rm.Cluster().Fetch(t.container.Node, chunk, CrossRackFraction, rateCap, t.joinCB)
	t.track(first)
	if second != nil {
		t.left++
		t.track(second)
	}
	if diskPart > 0 {
		t.left++
		t.track(t.container.Node.DiskWrite(diskPart, t.joinCB))
	}
}

// fetched runs when a shuffle fetch has landed.
func (j *Job) fetched(r *reduceRun) {
	r.busy = false
	r.fetchedMB += r.fetchingMB
	r.fetchingMB = 0
	j.tryFetch(r)
}

// reduceSort merges spilled segments (possibly in multiple passes) and
// runs the reduce function, pipelined with the final merge read.
func (j *Job) reduceSort(r *reduceRun) {
	if j.finished || r.task.killed {
		return
	}
	t := r.task
	p := j.bench.Profile
	node := t.container.Node

	totalIn := r.fetchedMB
	diskMB := float64(totalIn * r.diskFrac)
	r.pendingInMB = totalIn

	extraPasses := 0
	if r.numDiskSegs > t.Config.SortFactor() {
		extraPasses = mergePasses(r.numDiskSegs, t.Config.SortFactor()) - 1
	}
	readMB := diskMB + float64(2*diskMB*float64(extraPasses))
	spilledMB := diskMB + float64(diskMB*float64(extraPasses))
	if p.RecordBytes > 0 {
		t.spilledRec = spilledMB / p.RecordBytes
		t.outputRec = totalIn / p.RecordBytes
	}
	t.dataMB = totalIn
	r.pendingSpillRec = t.spilledRec

	cpu := float64(totalIn * (float64(p.SortCPUPerMB*float64(1+extraPasses)) + p.ReduceCPUPerMB))
	t.cpuSecs += cpu
	coreCap := math.Min(ReduceComputeParallelism, math.Max(t.container.CoreCap(), BurstFloorCores))

	t.beginPhase(phaseSort, 2)
	t.track(node.DiskRead(readMB, t.joinCB))
	t.track(node.Compute(cpu, coreCap, t.joinCB))
}

// reduceOutput writes the reducer's output file to HDFS.
func (j *Job) reduceOutput(r *reduceRun) {
	if j.finished || r.task.killed {
		return
	}
	t := r.task
	// pendingInMB is the input the sort phase merged: every fetch had
	// landed, and a shuffled reducer's input no longer changes.
	r.outMB = r.pendingInMB * j.bench.Profile.ReduceSelectivity
	t.beginPhase(phaseWrite, 1)
	t.trackOp(j.fs.StartWrite(t.container.Node, r.outMB, t.joinCB))
}

// reduceFinish applies the winning attempt's counter contributions.
func (j *Job) reduceFinish(r *reduceRun) {
	t := r.task
	outMB := r.outMB
	if j.finished || t.killed {
		j.releaseTask(t)
		return
	}
	j.counters.ReduceInputMB += r.pendingInMB
	j.counters.SpilledRecordsRed += r.pendingSpillRec
	j.counters.OutputMB += outMB
	j.taskSucceeded(t)
}
