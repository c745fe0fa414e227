package mapreduce

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/hdfs"
	"repro/internal/mrconf"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestLostSplitExhaustsAttempts: every node holding a replica of one
// map's input split crashes before any map launches and never comes
// back. Each attempt's read finds no replica left, so each fails with
// "input split lost"; the failures count against MaxAttempts, and the
// job fails with that reason.
func TestLostSplitExhaustsAttempts(t *testing.T) {
	r := newRig()
	rec := &trace.Recorder{}
	var res Result
	done := false
	j := Submit(r.rm, r.fs, Spec{Name: "a", Benchmark: smallTerasort(), BaseConfig: mrconf.Default(), Trace: rec},
		func(rr Result) { res, done = rr, true })
	// The lost split is the first whose replica nodes hold no other
	// split whole: it alone dies with them.
	holds := func(nodes []*cluster.Node, b *hdfs.Block) bool {
		for _, n := range b.Replicas {
			if !slices.Contains(nodes, n) {
				return false
			}
		}
		return true
	}
	var lost *Task
	for _, m := range j.mapTasks {
		n := 0
		for _, o := range j.mapTasks {
			if holds(m.Split.Replicas, o.Split) {
				n++
			}
		}
		if n == 1 {
			lost = m
			break
		}
	}
	for _, n := range append([]*cluster.Node(nil), lost.Split.Replicas...) {
		r.c.KillNode(n)
	}
	r.eng.Run()
	if !done || !res.Failed {
		t.Fatalf("job did not fail (done=%v, err=%v)", done, res.Err)
	}
	const attempts = 4 // the default MaxAttempts
	var failed []trace.Event
	for _, e := range rec.Events() {
		if e.Kind == trace.TaskFailed {
			failed = append(failed, e)
		}
	}
	if len(failed) != attempts {
		t.Fatalf("%d task_failed events, want %d: %+v", len(failed), attempts, failed)
	}
	for i, e := range failed {
		if e.TaskType != "map" || e.Task != lost.ID || e.Attempt != i || e.Detail != "input split lost" {
			t.Errorf("task_failed event %d = %+v, want map %d attempt %d with detail %q", i, e, lost.ID, i, "input split lost")
		}
	}
	if res.Counters.TaskFailures != attempts {
		t.Errorf("TaskFailures = %d, want %d", res.Counters.TaskFailures, attempts)
	}
	want := fmt.Sprintf("mapreduce: task %s failed %d attempts: input split lost", lost, attempts)
	if res.Err.Error() != want || !errors.Is(res.Err, errSplitLost) {
		t.Fatalf("Err = %q, want %q", res.Err, want)
	}
}

// TestEveryEndingConservesResources runs a stream of unpooled jobs in
// which attempts end in all four ways: OOM (the first attempt of every
// fourth task gets a sort buffer its heap cannot hold), failure
// (injected), node loss (a crash) and kill (speculative losers). Every
// job still completes, and each gives back all it held.
func TestEveryEndingConservesResources(t *testing.T) {
	r := newRig()
	spec := faults.Spec{
		NodeCrashes:     []faults.NodeCrash{{At: 45, Node: 3, RestartAfter: 120}, {At: 95, Node: 8, RestartAfter: 60}},
		TaskAttemptFail: &faults.TaskAttemptFail{Rate: 0.05, MeanDelaySecs: 3},
	}
	inj, err := faults.New(r.c, sim.NewSource(7), spec, nil)
	if err != nil {
		t.Fatalf("faults.New: %v", err)
	}
	type run struct {
		j   *Job
		res Result
	}
	var runs []*run
	benches := []workload.Benchmark{workload.Terasort(2, 0, 0), workload.Terasort(6, 0, 0)}
	for i := 0; i < 8; i++ {
		i := i
		r.eng.At(float64(i)*30, func() {
			ru := &run{}
			ru.j = Submit(r.rm, r.fs, Spec{
				Name:        fmt.Sprintf("job%02d", i),
				Benchmark:   benches[i%len(benches)],
				BaseConfig:  mrconf.Default(),
				Controller:  oomFirstAttempts{},
				Speculation: DefaultSpeculation(),
				Faults:      inj,
			}, func(res Result) { ru.res = res })
			runs = append(runs, ru)
		})
	}
	r.eng.Run()
	var total Counters
	for _, ru := range runs {
		if ru.res.Failed {
			t.Fatalf("job %s failed: %v", ru.j.Name, ru.res.Err)
		}
		checkInvariants(t, ru.j, ru.res)
		c := ru.res.Counters
		total.OOMKills += c.OOMKills
		total.TaskFailures += c.TaskFailures
		total.NodeLossKills += c.NodeLossKills
		total.SpeculativeKills += c.SpeculativeKills
	}
	if total.OOMKills == 0 || total.TaskFailures == 0 || total.NodeLossKills == 0 || total.SpeculativeKills == 0 {
		t.Fatalf("an ending never happened: %d OOM, %d failed, %d node-lost, %d killed",
			total.OOMKills, total.TaskFailures, total.NodeLossKills, total.SpeculativeKills)
	}
}

// oomFirstAttempts gives the first attempt of every fourth task a sort
// buffer that leaves its heap no room for the working set.
type oomFirstAttempts struct{ PassthroughController }

func (oomFirstAttempts) TaskConfig(t *Task, base mrconf.Config) mrconf.Config {
	if t.Attempt == 0 && t.ID%4 == 0 {
		return base.With(mrconf.IOSortMB, 760)
	}
	return base
}
