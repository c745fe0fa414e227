package mapreduce

import (
	"strings"
	"testing"

	"repro/internal/mrconf"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestJobEmitsTrace(t *testing.T) {
	r := newRig()
	rec := &trace.Recorder{}
	b := workload.Terasort(2, 0, 0)
	res := r.run(t, Spec{Benchmark: b, BaseConfig: mrconf.Default(), Trace: rec})
	if res.Failed {
		t.Fatal(res.Err)
	}
	// submit + (start+finish) per task + job finish
	want := 1 + 2*(b.NumMaps+b.NumReduces) + 1
	if len(rec.Events()) != want {
		t.Fatalf("trace events = %d, want %d", len(rec.Events()), want)
	}
	events := rec.Events()
	if events[0].Kind != trace.JobSubmit {
		t.Fatal("first event not job_submit")
	}
	if events[len(events)-1].Kind != trace.JobFinish {
		t.Fatal("last event not job_finish")
	}
	// Times must be nondecreasing.
	for i := 1; i < len(events); i++ {
		if events[i].Time < events[i-1].Time {
			t.Fatal("trace not in time order")
		}
	}
	// Every task_start carries a node.
	for _, e := range events {
		if e.Kind == trace.TaskStart && e.Node == "" {
			t.Fatalf("task_start without node: %+v", e)
		}
	}
	g := rec.Gantt(60)
	if !strings.Contains(g, "node") {
		t.Fatalf("gantt rendering broken:\n%s", g)
	}
}

func TestNoTraceByDefault(t *testing.T) {
	r := newRig()
	res := r.run(t, Spec{Benchmark: workload.Terasort(2, 0, 0), BaseConfig: mrconf.Default()})
	if res.Failed {
		t.Fatal(res.Err)
	}
}
