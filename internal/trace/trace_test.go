package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func sampleTrace() *Recorder {
	r := &Recorder{}
	r.Add(Event{Time: 0, Job: "j", Kind: JobSubmit})
	r.Add(Event{Time: 1, Job: "j", Kind: TaskStart, TaskType: "map", Task: 0, Node: "node00"})
	r.Add(Event{Time: 2, Job: "j", Kind: TaskStart, TaskType: "map", Task: 1, Node: "node01"})
	r.Add(Event{Time: 5, Job: "j", Kind: TaskFinish, TaskType: "map", Task: 0, Node: "node00"})
	r.Add(Event{Time: 7, Job: "j", Kind: TaskFinish, TaskType: "map", Task: 1, Node: "node01"})
	r.Add(Event{Time: 8, Job: "j", Kind: JobFinish})
	return r
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Add(Event{Time: 1}) // must not panic
	if r.Events() != nil {
		t.Fatal("nil recorder misbehaved")
	}
	if !strings.Contains(r.Gantt(20), "empty") {
		t.Fatal("nil recorder Gantt should be empty")
	}
}

func TestEventsCopied(t *testing.T) {
	r := sampleTrace()
	ev := r.Events()
	ev[0].Job = "mutated"
	if r.Events()[0].Job != "j" {
		t.Fatal("Events() exposed internal storage")
	}
}

func TestWriteJSONL(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTrace().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("JSONL lines = %d, want 6", len(lines))
	}
	var e Event
	if err := json.Unmarshal([]byte(lines[1]), &e); err != nil {
		t.Fatal(err)
	}
	if e.Kind != TaskStart || e.Node != "node00" {
		t.Fatalf("decoded event wrong: %+v", e)
	}
}

func TestGanttShowsBusyNodes(t *testing.T) {
	g := sampleTrace().Gantt(40)
	if !strings.Contains(g, "node00") || !strings.Contains(g, "node01") {
		t.Fatalf("Gantt missing node rows:\n%s", g)
	}
	// Both nodes were busy, so the chart must contain ramp characters.
	if !strings.ContainsAny(g, "▁▂▃▄▅▆▇█") {
		t.Fatalf("Gantt shows no occupancy:\n%s", g)
	}
	lines := strings.Split(strings.TrimSpace(g), "\n")
	if len(lines) != 3 { // axis + two nodes
		t.Fatalf("Gantt rows = %d, want 3:\n%s", len(lines), g)
	}
}

func TestGanttHandlesOOM(t *testing.T) {
	r := &Recorder{}
	r.Add(Event{Time: 0, Job: "j", Kind: TaskStart, TaskType: "map", Task: 0, Node: "n0"})
	r.Add(Event{Time: 3, Job: "j", Kind: TaskOOM, TaskType: "map", Task: 0, Node: "n0"})
	g := r.Gantt(20)
	if !strings.Contains(g, "n0") {
		t.Fatalf("OOM span not rendered:\n%s", g)
	}
}

func TestGanttMinWidth(t *testing.T) {
	g := sampleTrace().Gantt(1) // clamped up, must not panic
	if len(g) == 0 {
		t.Fatal("empty gantt")
	}
}

func TestStats(t *testing.T) {
	r := &Recorder{}
	r.Add(Event{Time: 0, Job: "j", Kind: JobSubmit})
	r.Add(Event{Time: 1, Job: "j", Kind: TaskStart, TaskType: "map", Task: 0, Node: "n0"})
	r.Add(Event{Time: 5, Job: "j", Kind: TaskFinish, TaskType: "map", Task: 0, Node: "n0"})
	r.Add(Event{Time: 3, Job: "j", Kind: TaskStart, TaskType: "reduce", Task: 0, Node: "n1"})
	r.Add(Event{Time: 9, Job: "j", Kind: TaskFinish, TaskType: "reduce", Task: 0, Node: "n1"})
	r.Add(Event{Time: 4, Job: "j", Kind: TaskOOM, TaskType: "map", Task: 1})
	r.Add(Event{Time: 9, Job: "j", Kind: JobFinish})

	stats := r.Stats()
	if len(stats) != 1 {
		t.Fatalf("stats jobs = %d", len(stats))
	}
	s := stats[0]
	if s.Duration() != 9 {
		t.Fatalf("duration = %v", s.Duration())
	}
	if s.MapPhaseSecs() != 5 || s.ReduceTailSecs() != 4 {
		t.Fatalf("phases = %v/%v", s.MapPhaseSecs(), s.ReduceTailSecs())
	}
	if s.MapStarts != 1 || s.RedStarts != 1 || s.OOMs != 1 {
		t.Fatalf("counts wrong: %+v", s)
	}
	if s.FirstRedStat != 3 {
		t.Fatalf("first reduce start = %v", s.FirstRedStat)
	}
}

func TestStatsMultiJobOrder(t *testing.T) {
	r := &Recorder{}
	r.Add(Event{Time: 0, Job: "a", Kind: JobSubmit})
	r.Add(Event{Time: 1, Job: "b", Kind: JobSubmit})
	r.Add(Event{Time: 2, Job: "a", Kind: JobFinish})
	r.Add(Event{Time: 3, Job: "b", Kind: JobFinish})
	stats := r.Stats()
	if len(stats) != 2 || stats[0].Job != "a" || stats[1].Job != "b" {
		t.Fatalf("order wrong: %+v", stats)
	}
}
