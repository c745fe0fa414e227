package mapreduce

import (
	"repro/internal/cluster"
	"repro/internal/trace"
)

// Failure recovery: the application-master half of the fault-injection
// subsystem (internal/faults). Three things can go wrong for a job:
//
//   - a node hosting a RUNNING attempt dies → the RM reclaims the
//     container (after its liveness expiry) and the attempt ends
//     node-lost (endAttempt): it requeues with the same configuration,
//     and since the task did nothing wrong this does not count against
//     MaxAttempts;
//   - a node holding a COMPLETED map's output dies while reducers
//     still need that output → reducer fetches against the dead host
//     fail and the map re-executes (nodeLost/reexecMap), reversing
//     exactly the counters its completion added;
//   - an attempt itself fails (injected fault, permanently lost input
//     split) → the attempt ends failed (endAttempt): it retries with a
//     fresh configuration, counts against MaxAttempts and reports its
//     node to the RM's per-node blacklist tracker.
//
// Everything here is reached only through fault injection; with no
// faults configured none of these paths run and the job's event
// sequence is identical to a build without them.

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
		j.rm.FaultCounters().TaskFailuresInjected++
		j.endAttempt(t, endFailed, errInjected)
	})
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
		TaskType: t.Type.String(), Task: t.ID, Attempt: t.Attempt, Node: n.Name,
		Detail: "map output lost"})
	j.spec.Trace.Add(trace.Event{Time: j.eng.Now(), Job: j.Name, Kind: trace.ReexecMap,
		TaskType: t.Type.String(), Task: t.ID, Attempt: t.Attempt + 1, Node: n.Name})

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
