package trace

import (
	"strings"
	"testing"
)

func streamEvents(n int) []Event {
	out := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		job := "wordcount-00001"
		if i%3 == 1 {
			job = "terasort-00002"
		}
		e := Event{Time: float64(i), Job: job, Kind: TaskStart, TaskType: "map"}
		switch i % 5 {
		case 3:
			e.Kind = JobSubmit
		case 4:
			e.Kind = JobFinish
		}
		out = append(out, e)
	}
	return out
}

// TestRingSinkAddZeroAlloc pins the flight-recorder contract: once the
// ring is constructed, Add never allocates, no matter how long the
// stream runs.
func TestRingSinkAddZeroAlloc(t *testing.T) {
	s := NewRingSink(64)
	e := Event{Time: 1, Job: "terasort-00042", Kind: TaskStart, TaskType: "map", Node: "n1"}
	if avg := testing.AllocsPerRun(1000, func() {
		s.Add(e)
	}); avg != 0 {
		t.Fatalf("RingSink.Add allocates %v per run; want 0", avg)
	}
	if s.Len() != 64 {
		t.Fatalf("ring retains %d events; want capacity 64", s.Len())
	}
}

// TestRingSinkEviction checks ordering and eviction semantics.
func TestRingSinkEviction(t *testing.T) {
	s := NewRingSink(4)
	for _, e := range streamEvents(10) {
		s.Add(e)
	}
	got := s.Events()
	if len(got) != 4 || s.Total() != 10 {
		t.Fatalf("ring holds %d events of %d total; want 4 of 10", len(got), s.Total())
	}
	for i, e := range got {
		if want := float64(6 + i); e.Time != want {
			t.Fatalf("ring[%d].Time = %v; want %v (oldest-first, last 4 retained)", i, e.Time, want)
		}
	}
}

// TestStatsSinkAggregatesAndOverall checks the per-class fold and the
// merged fleet-level aggregate.
func TestStatsSinkAggregatesAndOverall(t *testing.T) {
	s := NewStatsSink()
	now := 0.0
	for job, dur := range map[string]float64{"wordcount-00001": 40, "wordcount-00002": 80, "terasort-00001": 400} {
		s.Add(Event{Time: now, Job: job, Kind: JobSubmit})
		s.Add(Event{Time: now + 1, Job: job, Kind: TaskStart, TaskType: "map"})
		s.Add(Event{Time: now + dur - 1, Job: job, Kind: TaskFinish, TaskType: "map"})
		s.Add(Event{Time: now + dur, Job: job, Kind: JobFinish})
		now += 1000
	}
	wc := s.Class("wordcount")
	if wc.Jobs != 2 || wc.MeanDuration() != 60 || wc.MapFinishes != 2 {
		t.Fatalf("wordcount aggregate = %+v", wc)
	}
	all := s.Overall()
	if all.Jobs != 3 || all.DurMin != 40 || all.DurMax != 400 {
		t.Fatalf("overall aggregate = %+v", all)
	}
	if p := all.ApproxPercentile(99); p < 300 || p > 500 {
		t.Fatalf("overall p99 = %v; want ~400 (≤25%% bucket error)", p)
	}
	if s.InFlight() != 0 || s.EventCount() != 12 {
		t.Fatalf("inflight=%d events=%d", s.InFlight(), s.EventCount())
	}
	var b strings.Builder
	s.WriteSummary(&b)
	if !strings.Contains(b.String(), "terasort") || !strings.Contains(b.String(), "p99~(s)") {
		t.Fatalf("summary missing expected columns:\n%s", b.String())
	}
}

// TestStatsSinkMerge checks that splitting a stream across sinks and
// merging yields the same aggregates as one sink seeing everything.
func TestStatsSinkMerge(t *testing.T) {
	jobs := map[string]float64{"wordcount-00001": 40, "wordcount-00002": 80, "terasort-00001": 400}
	feed := func(s *StatsSink, job string, dur float64) {
		s.Add(Event{Time: 0, Job: job, Kind: JobSubmit})
		s.Add(Event{Time: 1, Job: job, Kind: TaskStart, TaskType: "map"})
		s.Add(Event{Time: dur - 1, Job: job, Kind: TaskFinish, TaskType: "map"})
		s.Add(Event{Time: dur, Job: job, Kind: JobFinish})
	}
	whole := NewStatsSink()
	master := NewStatsSink()
	for job, dur := range jobs {
		feed(whole, job, dur)
		cell := NewStatsSink()
		feed(cell, job, dur)
		master.Merge(cell)
	}
	if master.EventCount() != whole.EventCount() {
		t.Fatalf("merged events = %d; want %d", master.EventCount(), whole.EventCount())
	}
	if got, want := master.Classes(), whole.Classes(); len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("merged classes = %v; want %v", got, want)
	}
	for _, name := range whole.Classes() {
		if got, want := master.Class(name), whole.Class(name); got != want {
			t.Fatalf("class %s: merged %+v != whole %+v", name, got, want)
		}
	}
	if got, want := master.Overall(), whole.Overall(); got != want {
		t.Fatalf("merged overall %+v != whole %+v", got, want)
	}
}

// TestStatsSinkMergeInFlight checks that a merged sink still counts the
// jobs a source sink saw submitted but not finished, so a drain check
// on a folded result is not vacuous.
func TestStatsSinkMergeInFlight(t *testing.T) {
	cell := NewStatsSink()
	cell.Add(Event{Time: 0, Job: "wordcount-00001", Kind: JobSubmit})
	cell.Add(Event{Time: 0, Job: "wordcount-00002", Kind: JobSubmit})
	cell.Add(Event{Time: 5, Job: "wordcount-00002", Kind: JobFinish})
	merged := NewStatsSink()
	merged.Merge(cell)
	if got := merged.InFlight(); got != 1 {
		t.Fatalf("merged in-flight = %d; want 1", got)
	}
}
