package mapreduce

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/trace"
)

// Failure recovery: the application-master half of the fault-injection
// subsystem (internal/faults). Three things can go wrong for a job:
//
//   - a node hosting a RUNNING attempt dies → the RM reclaims the
//     container (after its liveness expiry) and taskLostNode requeues
//     the attempt with the same configuration — the task did nothing
//     wrong, so this does not count against MaxAttempts;
//   - a node holding a COMPLETED map's output dies while reducers
//     still need that output → reducer fetches against the dead host
//     fail and the map re-executes (nodeLost/reexecMap), reversing
//     exactly the counters its completion added;
//   - an attempt itself fails (injected fault, permanently lost input
//     split) → taskFailedFault retries with a fresh configuration and
//     counts the failure against MaxAttempts, reporting it to the RM's
//     per-node blacklist tracker.
//
// Everything here is reached only through fault injection; with no
// faults configured none of these paths run and the job's event
// sequence is identical to a build without them.

// dropActiveReducer unregisters a reducer's shuffle-phase state.
func (j *Job) dropActiveReducer(t *Task) {
	for i, rr := range j.activeReducers {
		if rr.task == t {
			j.activeReducers = append(j.activeReducers[:i], j.activeReducers[i+1:]...)
			break
		}
	}
}

// armAttemptFault asks the fault injector whether this attempt should
// fail partway through, and schedules the failure if so.
func (j *Job) armAttemptFault(t *Task) {
	h := j.spec.Faults
	if h == nil {
		return
	}
	delay, ok := h.AttemptFailDelay(t.Type.String(), t.ID, t.Attempt)
	if !ok {
		return
	}
	att, g := t.Attempt, j.gen
	j.eng.After(delay, func() {
		if j.gen != g || j.finished || t.killed || t.Attempt != att || t.State != TaskRunning {
			return
		}
		if t.logical().logicalDone {
			return
		}
		j.rm.FaultCounters().TaskFailuresInjected++
		j.taskFailedFault(t, "injected")
	})
}

// taskFailedFault handles a non-OOM attempt failure: the failure
// counts toward MaxAttempts, feeds the RM's per-node blacklist, and
// the task re-requests a fresh configuration (the controller may know
// better by now). OOM kills deliberately do NOT report to the
// blacklist — a bad heap setting is the configuration's fault, not the
// node's, and blacklisting for it would distort tuning runs.
func (j *Job) taskFailedFault(t *Task, detail string) {
	if j.finished || t.killed || t.logical().logicalDone {
		return
	}
	var node *cluster.Node
	nodeName := ""
	if t.container != nil {
		node = t.container.Node
		nodeName = node.Name
	}
	j.cancelWork(t)
	j.counters.TaskFailures++
	j.spec.Trace.Add(trace.Event{Time: j.eng.Now(), Job: j.Name, Kind: trace.TaskFailed,
		TaskType: t.Type.String(), TaskID: t.ID, Attempt: t.Attempt, Node: nodeName, Detail: detail})
	if t.specOrigin != nil {
		// A failed speculative copy is simply dropped.
		t.killed = true
		t.State = TaskFailed
		j.liveShadows--
		t.specOrigin.specCopy = nil
		if t.Type == ReduceTask {
			j.reduceMemHeld -= t.Config.ReduceMemMB()
			j.dropActiveReducer(t)
		}
		j.releaseTask(t)
		if node != nil {
			j.rm.ReportTaskFailure(node)
		}
		j.pump()
		return
	}
	t.EndTime = j.eng.Now()
	r := j.report(t, false)
	r.Failed = true
	j.releaseTask(t)
	j.reports = append(j.reports, r)
	j.ctrl.TaskCompleted(r)
	if t.Type == ReduceTask {
		j.reduceMemHeld -= t.Config.ReduceMemMB()
		j.dropActiveReducer(t)
	}
	if node != nil {
		j.rm.ReportTaskFailure(node)
	}
	t.Attempt++
	if t.Attempt >= j.spec.MaxAttempts {
		j.finish(fmt.Errorf("mapreduce: task %s failed %d attempts: %s", t, t.Attempt, detail))
		return
	}
	t.State = TaskPending
	j.requestContainer(t)
}

// taskLostNode handles a container whose host was declared lost by the
// RM: the attempt's work is discarded and the task requeued with the
// same configuration, with no MaxAttempts penalty.
func (j *Job) taskLostNode(t *Task) {
	if j.finished || t.killed || t.State == TaskSucceeded || t.logical().logicalDone {
		return
	}
	j.cancelWork(t)
	if t.Type == ReduceTask {
		j.reduceMemHeld -= t.Config.ReduceMemMB()
		j.dropActiveReducer(t)
	}
	t.container = nil // the RM releases the container itself
	j.counters.NodeLossKills++
	j.rm.FaultCounters().AttemptsKilledNodeLoss++
	j.spec.Trace.Add(trace.Event{Time: j.eng.Now(), Job: j.Name, Kind: trace.TaskKilled,
		TaskType: t.Type.String(), TaskID: t.ID, Attempt: t.Attempt, Detail: "node-lost"})
	if t.specOrigin != nil {
		// A lost speculative copy is simply dropped.
		t.killed = true
		t.State = TaskFailed
		j.liveShadows--
		t.specOrigin.specCopy = nil
		return
	}
	t.Attempt++
	t.State = TaskPending
	j.requestContainerWithConfig(t, t.Config)
}

// nodeLost is the AM's node-loss notification (fired after the RM has
// reclaimed the node's containers): completed map outputs stored on n
// died with it. If any reducer still needs them, those maps re-run —
// Hadoop's response to repeated reducer fetch failures against a dead
// host. Reduce outputs are already durable in HDFS and need nothing.
func (j *Job) nodeLost(n *cluster.Node) {
	if j.finished || !j.anyReducerNeedsMapOutput() {
		return
	}
	reexeced := false
	for _, t := range j.mapTasks {
		if t.logicalDone && t.outputNode == n {
			j.reexecMap(t, n)
			reexeced = true
		}
	}
	if reexeced {
		j.pump()
	}
}

// anyReducerNeedsMapOutput reports whether some reducer has shuffle
// work left — once every reducer has left the shuffle phase (or the
// job has none), lost map outputs no longer matter.
func (j *Job) anyReducerNeedsMapOutput() bool {
	if len(j.reduceTasks) == 0 || j.completedReduces == len(j.reduceTasks) {
		return false
	}
	for _, t := range j.reduceTasks {
		if t.logicalDone {
			continue
		}
		shuffled := false
		for _, r := range j.activeReducers {
			if r.task == t && r.shuffled {
				shuffled = true
				break
			}
		}
		if !shuffled {
			return true
		}
	}
	return false
}

// reexecMap rolls a completed map back to pending: its counter
// contributions are reversed, the shuffle ledger shrinks by its output
// (reducers' fetched bytes scale down proportionally — what they had
// fetched of the lost output must be re-fetched from the new attempt),
// and the task re-requests a container. The re-executed attempt
// produces identical output (same split, same skew), so totals are
// conserved once it completes.
func (j *Job) reexecMap(t *Task, n *cluster.Node) {
	p := j.bench.Profile
	rawRecs := 0.0
	if p.RecordBytes > 0 {
		rawRecs = t.rawOutMB / p.RecordBytes
	}
	j.counters.MapInputMB -= t.inputMB
	j.counters.MapOutputRecords -= rawRecs
	j.counters.CombineOutputRecs -= t.outputRec
	j.counters.MapOutputMB -= t.dataMB
	j.counters.SpilledRecordsMap -= t.spilledRec
	j.counters.MapSpills -= float64(t.numSpills)
	j.counters.MapsReExecuted++
	j.rm.FaultCounters().FetchFailures++
	j.rm.FaultCounters().MapsReExecuted++
	j.spec.Trace.Add(trace.Event{Time: j.eng.Now(), Job: j.Name, Kind: trace.FetchFail,
		TaskType: t.Type.String(), TaskID: t.ID, Attempt: t.Attempt, Node: n.Name,
		Detail: "map output lost"})
	j.spec.Trace.Add(trace.Event{Time: j.eng.Now(), Job: j.Name, Kind: trace.ReexecMap,
		TaskType: t.Type.String(), TaskID: t.ID, Attempt: t.Attempt + 1, Node: n.Name})

	totalBefore := j.totalMapOutMB
	j.totalMapOutMB -= t.dataMB
	if j.totalMapOutMB < 0 {
		j.totalMapOutMB = 0
	}
	if totalBefore > 0 {
		scale := j.totalMapOutMB / totalBefore
		for _, r := range j.activeReducers {
			if !r.shuffled {
				r.fetchedMB *= scale
			}
		}
	}
	j.completedMaps--
	t.logicalDone = false
	t.outputNode = nil
	t.killed = false
	t.specCopy = nil
	t.State = TaskPending
	t.Attempt++
	j.requestContainer(t)
}
