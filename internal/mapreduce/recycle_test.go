package mapreduce

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/mrconf"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// lateFaults arms a failure for every attempt, delay seconds after its
// launch, and never fails a fetch. fires records when each armed timer
// goes off.
type lateFaults struct {
	eng   *sim.Engine
	delay float64
	fires []float64
}

func (h *lateFaults) FetchFails() bool { return false }

func (h *lateFaults) AttemptFailDelay(string, int, int) (float64, bool) {
	h.fires = append(h.fires, h.eng.Now()+h.delay)
	return h.delay, true
}

// recycledPair runs job A from specA, then a plain job B one event
// after A's recycle. With shared set both draw from one Pool, so B
// reuses A's objects; otherwise A is not pooled and B runs alone on a
// fresh Pool, after the same cluster history. It returns B's result
// (reports copied), B's submit and finish times, and whether B reused
// A's Job object.
func recycledPair(t *testing.T, r *rig, specA Spec, shared bool) (res Result, startB, endB float64, reused bool) {
	t.Helper()
	poolA, poolB := (*Pool)(nil), NewPool()
	if shared {
		poolA = poolB
	}
	specA.Pool = poolA
	var jobA, jobB *Job
	got := false
	jobA = Submit(r.rm, r.fs, specA, func(Result) {
		// A's recycle is queued after this callback returns: two nested
		// zero-delay events put B's submission just behind it.
		r.eng.After(0, func() {
			r.eng.After(0, func() {
				startB = r.eng.Now()
				specB := Spec{Name: "b", Benchmark: smallTerasort(), BaseConfig: mrconf.Default(), Pool: poolB}
				jobB = Submit(r.rm, r.fs, specB, func(rr Result) {
					rr.Reports = append([]TaskReport(nil), rr.Reports...)
					res, endB, got = rr, r.eng.Now(), true
				})
			})
		})
	})
	r.eng.Run()
	if !got {
		t.Fatal("job b never completed")
	}
	return res, startB, endB, jobB == jobA
}

// TestRecycledJobClosuresInert: job A's fault timers outlive it, and
// job B, submitted right after A is recycled, reuses A's Job and Task
// objects while those timers fire. The generation guard keeps every
// stale timer inert, so B runs exactly as it does on a fresh pool.
func TestRecycledJobClosuresInert(t *testing.T) {
	// A alone, to learn when it finishes.
	probe := newRig()
	endA := probe.run(t, Spec{Name: "a", Benchmark: smallTerasort(), BaseConfig: mrconf.Default()}).Duration

	specA := func(h *lateFaults) Spec {
		return Spec{Name: "a", Benchmark: smallTerasort(), BaseConfig: mrconf.Default(), Faults: h}
	}
	ref := newRig()
	want, _, _, reused := recycledPair(t, ref, specA(&lateFaults{eng: ref.eng, delay: endA + 1}), false)
	if reused {
		t.Fatal("the reference run reused A's job object")
	}

	r := newRig()
	h := &lateFaults{eng: r.eng, delay: endA + 1}
	got, startB, endB, reused := recycledPair(t, r, specA(h), true)
	if !reused {
		t.Fatal("job b did not reuse job a's recycled object")
	}
	during := 0
	for _, at := range h.fires {
		if at > startB && at < endB {
			during++
		}
	}
	if during == 0 {
		t.Fatalf("none of a's %d fault timers fired while b ran (%v..%v)", len(h.fires), startB, endB)
	}
	if got.Counters.TaskFailures != 0 {
		t.Errorf("a's stale fault timers failed %d of b's attempts", got.Counters.TaskFailures)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("b on a's recycled objects differs from b on a fresh pool:\n got %+v\nwant %+v", got.Counters, want.Counters)
	}
}

// flakyReducer fails every regular attempt of one reduce task delay
// seconds after launch; speculative copies (attempt >= 100) run clean.
type flakyReducer struct {
	id    int
	delay float64
}

func (h flakyReducer) FetchFails() bool { return false }

func (h flakyReducer) AttemptFailDelay(taskType string, id, attempt int) (float64, bool) {
	return h.delay, taskType == ReduceTask.String() && id == h.id && attempt < 100
}

// TestLateContainerAfterRecycle: one reducer's regular attempts keep
// failing, so its original is re-requested over and over while a
// speculative copy runs. The copy wins, and the job finishes, while the
// original's latest request is placed but still inside the RM's
// scheduling delay: killing the loser cannot withdraw it, and the
// container reaches job A's app after A has been recycled. The RM must
// hand it back without calling into the task, which by then sits in the
// pool (A alone) or belongs to job B.
func TestLateContainerAfterRecycle(t *testing.T) {
	specA := Spec{Name: "a", Benchmark: smallTerasort(), BaseConfig: mrconf.Default(),
		Faults: flakyReducer{id: 0, delay: 2.5}, MaxAttempts: 100,
		Speculation: &SpeculationConfig{CheckInterval: 1, SlowTaskThreshold: 0.01, MinCompleted: 1, MaxConcurrent: 100}}
	delayed := func() *rig {
		r := newRig()
		r.rm.SchedulingDelay = 30
		return r
	}

	// A alone on a pool. At its finish containers must still be booked
	// on the nodes, waiting out the delay; they arrive after the
	// recycle, while A's objects sit unused in the pool.
	probe := delayed()
	pooled := specA
	pooled.Pool = NewPool()
	held := 0.0
	Submit(probe.rm, probe.fs, pooled, func(res Result) {
		if res.Failed || res.Counters.TaskFailures == 0 || res.Counters.SpeculativeWins == 0 {
			t.Errorf("job a: failed=%v, %d attempt failures, %d speculative wins; want a clean finish with both",
				res.Failed, res.Counters.TaskFailures, res.Counters.SpeculativeWins)
		}
		for _, n := range probe.rm.Cluster().Nodes {
			held += probe.rm.BookedMemMB(n)
		}
	})
	probe.eng.Run()
	if held == 0 {
		t.Fatal("no container was inside the scheduling delay when job a finished; the test exercises nothing")
	}

	want, _, _, reused := recycledPair(t, delayed(), specA, false)
	if reused {
		t.Fatal("the reference run reused A's job object")
	}
	got, _, _, reused := recycledPair(t, delayed(), specA, true)
	if !reused {
		t.Fatal("job b did not reuse job a's recycled object")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("b on a's recycled objects differs from b on a fresh pool:\n got %+v\nwant %+v", got.Counters, want.Counters)
	}
}

// TestPoolInvisibleUnderFaults: under a node crash, attempt failures,
// fetch failures and speculation, recycling finished jobs through a
// Pool changes nothing a caller can see — neither any job's result nor
// a single trace event.
func TestPoolInvisibleUnderFaults(t *testing.T) {
	run := func(pool *Pool) (results []Result, events []byte, jobs map[*Job]int, fc string) {
		r := newRig()
		rec := &trace.Recorder{}
		spec := faults.Spec{
			NodeCrashes:     []faults.NodeCrash{{At: 40, Node: 3, RestartAfter: 120}},
			FetchFailRate:   0.05,
			TaskAttemptFail: &faults.TaskAttemptFail{Rate: 0.05, MeanDelaySecs: 3},
		}
		inj, err := faults.New(r.c, sim.NewSource(7), spec, rec)
		if err != nil {
			t.Fatalf("faults.New: %v", err)
		}
		jobs = map[*Job]int{}
		benches := []workload.Benchmark{workload.Terasort(2, 0, 0), workload.Terasort(6, 0, 0)}
		// Arrivals every 30 s against ~200 s jobs: later jobs reuse the
		// objects of earlier ones while those jobs' timers still fire.
		for i := 0; i < 16; i++ {
			i := i
			r.eng.At(float64(i)*30, func() {
				spec := Spec{
					Name:        fmt.Sprintf("job%02d", i),
					Benchmark:   benches[i%len(benches)],
					BaseConfig:  mrconf.Default(),
					Trace:       rec,
					Speculation: DefaultSpeculation(),
					Faults:      inj,
					Pool:        pool,
				}
				j := Submit(r.rm, r.fs, spec, func(res Result) {
					res.Reports = append([]TaskReport(nil), res.Reports...)
					results = append(results, res)
				})
				jobs[j]++
			})
		}
		r.eng.Run()
		var buf bytes.Buffer
		if err := rec.WriteJSONL(&buf); err != nil {
			t.Fatalf("WriteJSONL: %v", err)
		}
		return results, buf.Bytes(), jobs, fmt.Sprintf("%+v", *r.c.Faults)
	}

	want, wantEvents, _, wantFaults := run(nil)
	got, gotEvents, jobs, gotFaults := run(NewPool())
	if len(jobs) == len(got) {
		t.Fatal("no job reused a recycled Job object; the test exercises nothing")
	}
	var failures, specs int
	for _, res := range want {
		failures += res.Counters.TaskFailures
		specs += res.Counters.SpeculativeLaunches
	}
	if failures == 0 || specs == 0 {
		t.Fatalf("faults or speculation idle (%d attempt failures, %d speculative launches)", failures, specs)
	}
	if len(got) != len(want) {
		t.Fatalf("%d jobs finished with a pool, %d without", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("job %s differs with a pool:\n got %+v\nwant %+v", want[i].JobName, got[i].Counters, want[i].Counters)
		}
	}
	if gotFaults != wantFaults {
		t.Errorf("fault counters differ with a pool:\n got %s\nwant %s", gotFaults, wantFaults)
	}
	if !bytes.Equal(gotEvents, wantEvents) {
		t.Error("the trace event stream differs with a pool")
	}
}

// flowSampler watches one job's tasks at a fixed simulated-time
// interval. It records every flow a task tracks, and fails the test when two tasks track one flow at the same time: a
// flow recycled at one attempt's success and restarted for another
// must have left the first attempt's list.
type flowSampler struct {
	tracked map[*cluster.Flow]bool
	samples int
}

func sampleTrackedFlows(t *testing.T, r *rig, j *Job, interval float64) *flowSampler {
	t.Helper()
	s := &flowSampler{tracked: map[*cluster.Flow]bool{}}
	r.eng.Tick(interval, func() bool {
		if j.finished {
			return false
		}
		s.samples++
		owner := map[*cluster.Flow]*Task{}
		for _, tasks := range [][]*Task{j.mapTasks, j.reduceTasks} {
			for _, tk := range tasks {
				for _, f := range tk.liveFlows {
					if o := owner[f]; o != nil && o != tk {
						t.Fatalf("t=%g: %s and %s both track one flow", r.eng.Now(), o, tk)
					}
					owner[f] = tk
					s.tracked[f] = true
				}
			}
		}
		return true
	})
	return s
}

// TestSucceededAttemptFlowsRecycled: in an unpooled job, each attempt
// hands its flows back to the cluster's free list when it succeeds.
// After the job no task tracks a flow, and draining the free list
// yields every flow an attempt was seen running.
func TestSucceededAttemptFlowsRecycled(t *testing.T) {
	r := newRig()
	done := false
	j := Submit(r.rm, r.fs, Spec{Name: "a", Benchmark: smallTerasort(), BaseConfig: mrconf.Default()},
		func(res Result) { done = !res.Failed })
	s := sampleTrackedFlows(t, r, j, 0.05)
	r.eng.Run()
	if !done {
		t.Fatal("job did not complete cleanly")
	}
	if s.samples == 0 || len(s.tracked) == 0 {
		t.Fatalf("sampled %d times and saw %d tracked flows; the test exercises nothing", s.samples, len(s.tracked))
	}
	for _, tasks := range [][]*Task{j.mapTasks, j.reduceTasks} {
		for _, tk := range tasks {
			if len(tk.liveFlows) != 0 {
				t.Errorf("%s still tracks %d flows after the job", tk, len(tk.liveFlows))
			}
		}
	}
	// Every fabric of the cluster shares one free list. A disk read
	// canceled at once keeps the link empty, so starting one is cheap;
	// each pops the free list until it is empty and then allocates.
	node := r.c.Nodes[0]
	missing := len(s.tracked)
	for i := 0; missing > 0 && i < 100_000; i++ {
		f := node.DiskRead(1, nil)
		f.Cancel()
		if s.tracked[f] {
			delete(s.tracked, f)
			missing--
		}
	}
	if missing > 0 {
		t.Fatalf("%d flows that succeeded attempts tracked are not in the cluster's free list", missing)
	}
}

// failReexec fails, delay seconds after launch, the named attempt of
// each map task in attempt: the first re-execution of a map whose
// output was lost.
type failReexec struct {
	attempt map[int]int
	delay   float64
	armed   int
}

func (h *failReexec) FetchFails() bool { return false }

func (h *failReexec) AttemptFailDelay(taskType string, id, attempt int) (float64, bool) {
	if a, ok := h.attempt[id]; !ok || taskType != MapTask.String() || attempt != a {
		return 0, false
	}
	h.armed++
	return h.delay, true
}

// TestReexecutedMapCancelsOnlyItsOwnFlows: a node crash after maps
// succeeded on it re-executes them, and each re-executed attempt is
// failed mid-run, so cancelWork runs on a task whose earlier attempt
// succeeded and recycled its flows — which other attempts have since
// restarted. cancelWork must cancel only the new attempt's flows: no
// two tasks ever track one flow, and the job completes with its data
// conserved.
func TestReexecutedMapCancelsOnlyItsOwnFlows(t *testing.T) {
	r := newRig()
	h := &failReexec{attempt: map[int]int{}, delay: 3}
	var res Result
	done := false
	j := Submit(r.rm, r.fs, Spec{Name: "a", Benchmark: smallTerasort(), BaseConfig: mrconf.Default(), Faults: h},
		func(rr Result) { res, done = rr, true })
	s := sampleTrackedFlows(t, r, j, 0.05)
	// Crash the host of the first completed map output once reducers
	// need it, and bring it back two minutes later.
	r.eng.Tick(1, func() bool {
		if j.finished || !j.anyReducerNeedsMapOutput() {
			return !j.finished
		}
		for _, tk := range j.mapTasks {
			if !tk.logicalDone || tk.outputNode == nil {
				continue
			}
			node := tk.outputNode
			for _, m := range j.mapTasks {
				if m.logicalDone && m.outputNode == node {
					h.attempt[m.ID] = m.Attempt + 1
				}
			}
			r.c.KillNode(node)
			r.eng.After(120, func() { r.c.RestoreNode(node) })
			return false
		}
		return true
	})
	r.eng.Run()
	if !done || res.Failed {
		t.Fatalf("job did not complete cleanly (done=%v, err=%v)", done, res.Err)
	}
	checkInvariants(t, j, res)
	if res.Counters.MapsReExecuted == 0 || h.armed == 0 || res.Counters.TaskFailures == 0 {
		t.Fatalf("%d maps re-executed, %d re-executions armed to fail, %d attempt failures; want all positive",
			res.Counters.MapsReExecuted, h.armed, res.Counters.TaskFailures)
	}
	if s.samples == 0 {
		t.Fatal("the flow sampler never ran")
	}
}

// crashOnFirstStart crashes the host of the first map attempt to
// start, after seconds, while that attempt is still in its launch
// overhead.
type crashOnFirstStart struct {
	c       *cluster.Cluster
	after   float64
	crashed bool
	starts  []trace.Event
}

func (s *crashOnFirstStart) Add(e trace.Event) {
	if e.Kind != trace.TaskStart {
		return
	}
	s.starts = append(s.starts, e)
	if s.crashed || e.TaskType != MapTask.String() {
		return
	}
	s.crashed = true
	for _, n := range s.c.Nodes {
		if n.Name == e.Node {
			s.c.Eng.After(s.after, func() { s.c.KillNode(n) })
		}
	}
}

// phaseCounter counts, per task attempt, how often its main phase
// began: the AM asks LiveConfig once as each attempt's launch ends.
type phaseCounter struct {
	PassthroughController
	mains map[[3]int]int
}

func (c *phaseCounter) LiveConfig(t *Task, current mrconf.Config) mrconf.Config {
	c.mains[[3]int{int(t.Type), t.ID, t.Attempt}]++
	return current
}

// TestStaleLaunchAfterRequeue: a map attempt's host crashes during the
// attempt's launch overhead, and the RM declares the node lost and the
// task's next attempt starts before the first attempt's launch timer
// fires. That timer, the task's bound one, must not run the next
// attempt's main phase: every attempt runs it at most once.
func TestStaleLaunchAfterRequeue(t *testing.T) {
	r := newRig()
	r.rm.SchedulingDelay = 0.1
	r.rm.NodeExpirySecs = 0.05
	sink := &crashOnFirstStart{c: r.c, after: 0.2}
	ctrl := &phaseCounter{mains: map[[3]int]int{}}
	j, res := r.runJob(t, Spec{Benchmark: smallTerasort(), BaseConfig: mrconf.Default(), Trace: sink, Controller: ctrl})
	if res.Failed {
		t.Fatalf("job failed: %v", res.Err)
	}
	first := sink.starts[0]
	requeued := false
	for _, e := range sink.starts {
		if e.TaskType == first.TaskType && e.Task == first.Task && e.Attempt == first.Attempt+1 &&
			e.Time < first.Time+TaskLaunchOverheadSecs {
			requeued = true
		}
	}
	if !requeued {
		t.Fatal("no next attempt started inside the first attempt's launch overhead; the test exercises nothing")
	}
	for k, n := range ctrl.mains {
		if n != 1 {
			t.Errorf("%s task %d attempt %d began its main phase %d times, want once", TaskType(k[0]), k[1], k[2], n)
		}
	}
	checkInvariants(t, j, res)
}
