package mapreduce

import (
	"math"

	"repro/internal/hdfs"
	"repro/internal/mrconf"
	"repro/internal/trace"
	"repro/internal/yarn"
)

// runMap executes one map task attempt in its container. Phases:
//
//  1. launch overhead (JVM start, localization);
//  2. split read overlapped with the map function and, when spilling
//     more than once, with the pipelined spill writes;
//  3. final spill plus merge passes (disk + merge CPU).
func (j *Job) runMap(t *Task, c *yarn.Container) {
	t.State = TaskRunning
	t.StartTime = j.eng.Now()
	t.container = c
	t.cpuSecs = 0
	j.traceTask(t, trace.TaskStart)

	if t.Split != nil {
		switch j.fs.Locality(t.Split, c.Node) {
		case hdfs.NodeLocal:
			j.counters.NodeLocalMaps++
		case hdfs.RackLocal:
			j.counters.RackLocalMaps++
		default:
			j.counters.OffRackMaps++
		}
	}

	j.armAttemptFault(t)
	j.after(t, &t.launch, TaskLaunchOverheadSecs, (*Job).launched)
}

// launched runs when an attempt's launch overhead has passed.
func (j *Job) launched(t *Task) {
	if t.Type == MapTask {
		j.mapMain(t)
	} else {
		j.reduceMain(t)
	}
}

func (j *Job) mapMain(t *Task) {
	if j.finished || t.killed {
		return
	}
	if t.container.Node.Down() {
		// The host crashed during launch; the attempt goes quiet and the
		// RM's node-loss path requeues it after the liveness expiry.
		return
	}
	t.Config = j.ctrl.LiveConfig(t, t.Config) // category-3 params may have moved
	p := j.bench.Profile
	node := t.container.Node

	inputMB := 0.0
	if t.Split != nil {
		inputMB = t.Split.SizeMB
	}
	rawOutMB := (inputMB*p.RawMapSelectivity + p.MapFixedOutputMB) * t.Skew
	combinedMB := rawOutMB * p.CombinerReduction

	bufferMB := t.Config.SortMB() * t.Config.SpillPct()
	numSpills := 1
	if rawOutMB > bufferMB && bufferMB > 0 {
		numSpills = int(math.Ceil(rawOutMB / bufferMB))
	}

	// Memory feasibility: heap must hold the sort buffer plus the map
	// function's working set.
	heapNeedMB := JVMBaseMB + t.Config.SortMB() + p.MapWorkingSetMB*math.Sqrt(t.Skew)
	t.peakMemMB = heapNeedMB / mrconf.HeapFraction // resident ≈ heap use / heap fraction
	coreCap := math.Min(MapComputeParallelism, math.Max(t.container.CoreCap(), BurstFloorCores))
	cpuSecs := inputMB*p.MapCPUPerMB*t.Skew + p.MapFixedCPUSecs*t.Skew + rawOutMB*p.SortCPUPerMB

	if heapNeedMB > t.Config.MapHeapMB() {
		// The JVM dies partway through filling the buffer.
		frac := t.Config.MapHeapMB() / heapNeedMB
		failAfter := math.Max(2, cpuSecs/coreCap*frac)
		t.cpuSecs = cpuSecs * frac
		j.after(t, &t.oom, failAfter, (*Job).oomKilled)
		return
	}

	t.cpuSecs += cpuSecs
	t.inputMB = inputMB

	overlapMB := 0.0
	if numSpills > 1 {
		eff := 1.0
		if t.Config.SpillPct() > 0.9 {
			// Too little headroom: the collector blocks while spilling.
			eff = PipelineEfficiencyHighSpillPct
		}
		overlapMB = combinedMB * float64(numSpills-1) / float64(numSpills) * eff
	}

	t.combinedMB, t.overlapMB, t.spills = combinedMB, overlapMB, numSpills
	t.beginPhase(phaseMap, 1) // compute
	t.track(node.Compute(cpuSecs, coreCap, t.joinCB))
	if t.Split != nil {
		t.left++
		op := j.fs.StartRead(t.Split, node, t.joinCB)
		// The op runs OnFail only while the owner has not canceled it,
		// and every attempt that ends early cancels its ops, so the
		// task's one callback needs no attempt guard.
		op.OnFail = t.splitLostCB
		t.trackOp(op)
	}
	if overlapMB > 0 {
		t.left++
		t.track(node.DiskWrite(overlapMB, t.joinCB))
	}
}

// oomKilled runs when an attempt whose heap cannot hold its buffers
// dies.
func (j *Job) oomKilled(t *Task) { j.endAttempt(t, endOOM, errOOM) }

// mapMerge writes the final spill and runs the merge passes, then
// finalizes counters.
func (j *Job) mapMerge(t *Task) {
	if j.finished || t.killed {
		return
	}
	p := j.bench.Profile
	node := t.container.Node
	combinedMB, overlapMB, numSpills := t.combinedMB, t.overlapMB, t.spills
	passes := mergePasses(numSpills, t.Config.SortFactor())

	finalSpillMB := combinedMB - overlapMB
	// Merge passes write their output through the disk; the reads hit
	// the page cache (the spill files were written moments ago on a
	// node with gigabytes of cache), so only writes are charged.
	mergeIOMB := finalSpillMB + combinedMB*float64(passes)
	mergeCPU := combinedMB * p.SortCPUPerMB * float64(passes)
	t.cpuSecs += mergeCPU

	coreCap := math.Min(MapComputeParallelism, math.Max(t.container.CoreCap(), BurstFloorCores))
	t.passes = passes
	t.beginPhase(phaseMerge, 2)
	t.track(node.DiskWrite(mergeIOMB, t.joinCB))
	t.track(node.Compute(mergeCPU, coreCap, t.joinCB))
}

func (j *Job) mapFinish(t *Task) {
	if j.finished || t.killed {
		return
	}
	combinedMB, numSpills, passes := t.combinedMB, t.spills, t.passes
	p := j.bench.Profile
	combinedRecs := 0.0
	rawRecs := 0.0
	if p.RecordBytes > 0 {
		combinedRecs = combinedMB / p.RecordBytes
		rawRecs = combinedMB / p.CombinerReduction / p.RecordBytes
	}
	spilled := combinedRecs * float64(1+passes)

	j.counters.MapInputMB += t.inputMB
	j.counters.MapOutputRecords += rawRecs
	j.counters.CombineOutputRecs += combinedRecs
	j.counters.MapOutputMB += combinedMB
	j.counters.SpilledRecordsMap += spilled
	j.counters.MapSpills += float64(numSpills)
	t.spilledRec = spilled
	t.outputRec = combinedRecs
	t.dataMB = combinedMB
	if p.CombinerReduction > 0 {
		t.rawOutMB = combinedMB / p.CombinerReduction
	}
	t.numSpills = numSpills

	// The winner's stats and output location live on the logical task so
	// a later node loss can reverse exactly what this completion added.
	lt := t.logical()
	if lt != t {
		lt.inputMB, lt.spilledRec, lt.outputRec = t.inputMB, t.spilledRec, t.outputRec
		lt.dataMB, lt.rawOutMB, lt.numSpills = t.dataMB, t.rawOutMB, t.numSpills
	}
	lt.outputNode = t.container.Node

	j.totalMapOutMB += combinedMB
	j.taskSucceeded(t)
	// New map output unblocks shuffle fetches.
	j.wakeReducers()
}
