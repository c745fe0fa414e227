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
//   - A job is recycled only when it finishes cleanly AND ran with
//     Spec.Faults == nil and Spec.Speculation == nil. Under those
//     conditions no scheduled closure capturing the job or a task can
//     fire after the finish event, so nothing dangles.
//   - The recycle happens one zero-delay event after the finish, so
//     everything on the finishing event's stack (onDone included) sees
//     intact state.
//   - Result.Reports handed to onDone aliases pooled storage: it is
//     valid only during the onDone call. Callers that need reports
//     afterwards must copy them (or not pool).
//   - Pointers obtained from the job (tasks, *Job itself) must not be
//     retained past onDone for the same reason.
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
// slice capacity — and returns everything to the free lists.
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
		mapSkewRNG: j.mapSkewRNG, reduceRNG: j.reduceRNG}
	p.jobs = append(p.jobs, j)
}

// recycleTask zeroes one task, dropping every reference it holds
// (flows, ops, container, split, job) while keeping the tracking
// slices' capacity. Finished flows are handed back to their fabric's
// free list first: liveFlows is the sole surviving reference to them
// (the fabric drops its own on completion, and nothing else in this
// package retains *cluster.Flow), so the task is entitled to recycle.
// HDFS-internal flows live inside liveOps' operation objects and are
// deliberately left alone.
func (p *Pool) recycleTask(t *Task) {
	for _, f := range t.liveFlows {
		f.Recycle()
	}
	flows := clearSlice(t.liveFlows)
	ops := clearSlice(t.liveOps)
	*t = Task{liveFlows: flows, liveOps: ops,
		onAllocCB: t.onAllocCB, onPreemptCB: t.onPreemptCB, onNodeLostCB: t.onNodeLostCB}
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
