package mapreduce

// Pool recycles Job and Task objects across submissions so a
// continuous stream of jobs reaches an allocation-lean steady state:
// after warm-up, submitting a job reuses the previous jobs' object
// graphs (including their slice capacity) instead of growing the heap
// with every arrival.
//
// Ownership contract — recycling is strictly opt-in and gated:
//
//   - Only jobs submitted with Spec.Pool set participate.
//   - A job is recycled when it finishes cleanly, with or without fault
//     hooks and speculation. A failed job may still have attempts in
//     flight and is never recycled.
//   - Callbacks are bound once per object, job and task alike, and
//     survive the recycle, so a pooled job's steady-state attempts
//     allocate almost nothing. No engine call is added for it: each
//     bound callback is queued where a fresh closure used to be.
//   - Timers the job scheduled may outlive it. The fault timer, fetch
//     retries and the speculation tick capture the job's generation,
//     which recycleJob bumps, and return at once on a mismatch. The
//     launch and OOM timers are per-task taskTimers that store the
//     job, its generation and the attempt as their guard, and keep it
//     through the recycle while their event is queued. A job-level
//     generation suffices: a task is recycled only with its owning job.
//   - An attempt's phase callbacks (joinCB, the read's OnFail) need no
//     guard: they reach the task only through the attempt's flows and
//     HDFS ops, which are canceled whenever the attempt ends early.
//   - Container callbacks need no generation: the RM never calls
//     OnAllocate or OnNodeLost once the job's app has finished. A
//     container it granted inside the scheduling delay for an attempt
//     killed since (a speculative loser whose request was already
//     placed) goes back to the RM when the delay ends, not to the
//     task, which may by then be pooled or serve another job.
//   - The recycle happens one zero-delay event after the finish, so
//     everything on the finishing event's stack (onDone included) sees
//     intact state.
//   - Result.Reports handed to onDone aliases pooled storage: it is
//     valid only during the onDone call. Callers that need reports
//     afterwards must copy them (or not pool).
//   - Pointers obtained from the job (tasks, *Job itself) must not be
//     retained past onDone for the same reason.
//
// experiments.RunStream makes one pool per cell of a run, so no pooled
// object outlives its run.
//
// A Pool is not safe for concurrent use; like the rest of the job
// layer it runs inside engine callbacks.
type Pool struct {
	jobs  []*Job
	tasks []*Task
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// getJob pops a recycled job (zeroed, slice capacity retained) or
// allocates a fresh one. Safe on a nil pool.
func (p *Pool) getJob() *Job {
	if p == nil || len(p.jobs) == 0 {
		return &Job{}
	}
	j := p.jobs[len(p.jobs)-1]
	p.jobs = p.jobs[:len(p.jobs)-1]
	return j
}

// getTask pops a recycled task or allocates a fresh one. Safe on a
// nil pool.
func (p *Pool) getTask() *Task {
	if p == nil || len(p.tasks) == 0 {
		return &Task{}
	}
	t := p.tasks[len(p.tasks)-1]
	p.tasks = p.tasks[:len(p.tasks)-1]
	return t
}

// recycleJob resets the job and its tasks to zero values — keeping
// slice capacity and advancing the generation — and returns everything
// to the free lists.
func (p *Pool) recycleJob(j *Job) {
	for _, t := range j.mapTasks {
		p.recycleTask(t)
	}
	for _, t := range j.reduceTasks {
		p.recycleTask(t)
	}
	mt := clearSlice(j.mapTasks)
	rt := clearSlice(j.reduceTasks)
	shares := j.reduceShare[:0]
	reports := clearSlice(j.reports)
	active := clearSlice(j.activeReducers)
	*j = Job{mapTasks: mt, reduceTasks: rt, reduceShare: shares, reports: reports, activeReducers: active,
		mapSkewRNG: j.mapSkewRNG, reduceRNG: j.reduceRNG, gen: j.gen + 1,
		pumpCB: j.pumpCB, nodeLostCB: j.nodeLostCB, recycleCB: j.recycleCB}
	p.jobs = append(p.jobs, j)
}

// recycleTask zeroes one task, dropping every reference it holds
// (flows, ops, container, split, job) while keeping the tracking
// slices' capacity, the reduce run, the bound callbacks and the two
// timers, whose guards a queued event may still read. Both lists are
// empty: only a cleanly finished job is recycled, and each of its
// attempts either succeeded, recycling its flows and ops
// (Task.recycleWork), or ended early and canceled them (endAttempt).
func (p *Pool) recycleTask(t *Task) {
	*t = Task{liveFlows: t.liveFlows, liveOps: t.liveOps, run: t.run,
		onAllocCB: t.onAllocCB, onNodeLostCB: t.onNodeLostCB, splitLostCB: t.splitLostCB,
		joinCB: t.joinCB, launch: t.launch, oom: t.oom}
	p.tasks = append(p.tasks, t)
}

// clearSlice nils out the elements (so pooled objects pin nothing) and
// reslices to length zero, preserving capacity.
func clearSlice[E any, S ~[]E](s S) S {
	var zero E
	for i := range s {
		s[i] = zero
	}
	return s[:0]
}
