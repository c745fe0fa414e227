package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/trace"
)

// cellLegs runs the same rack-cell spec on the serial engine and under
// parallel windows at 1 and 8 workers, returning the three results in
// that order. Every leg shares the seed and topology; only the
// engine's execution strategy differs.
func cellLegs(t *testing.T, spec StreamSpec) [3]StreamResult {
	t.Helper()
	var out [3]StreamResult
	serial := spec
	serial.cellSerial = true
	out[0] = RunStream(serial)
	for i, workers := range []int{1, 8} {
		p := spec
		p.Parallel = workers
		out[i+1] = RunStream(p)
	}
	return out
}

// assertLegsIdentical pins the tentpole's invariance contract: a
// parallel-window run at any worker count produces exactly the serial
// rack-cell run's aggregates — the report, the overall fold, every
// per-class aggregate including the latency histogram (ClassStats is
// comparable, so == covers durHist), and the engine's event count.
func assertLegsIdentical(t *testing.T, legs [3]StreamResult) {
	t.Helper()
	names := []string{"serial", "workers=1", "workers=8"}
	ref := legs[0]
	if ref.Jobs < 10 || ref.Completed != ref.Jobs {
		t.Fatalf("serial leg: %d of %d jobs completed", ref.Completed, ref.Jobs)
	}
	if ref.SinkEvents < ref.Jobs*4 {
		t.Fatalf("serial leg: sink saw only %d events for %d jobs", ref.SinkEvents, ref.Jobs)
	}
	for i := 1; i < len(legs); i++ {
		leg := legs[i]
		if leg.Report() != ref.Report() {
			t.Fatalf("%s report differs from serial:\n--- serial ---\n%s--- %s ---\n%s",
				names[i], ref.Report(), names[i], leg.Report())
		}
		if leg.Events != ref.Events {
			t.Fatalf("%s processed %d events; serial processed %d", names[i], leg.Events, ref.Events)
		}
		if leg.Stats.Overall() != ref.Stats.Overall() {
			t.Fatalf("%s overall aggregate differs:\n%+v\nvs serial\n%+v",
				names[i], leg.Stats.Overall(), ref.Stats.Overall())
		}
		if !reflect.DeepEqual(leg.Stats.Classes(), ref.Stats.Classes()) {
			t.Fatalf("%s classes %v; serial %v", names[i], leg.Stats.Classes(), ref.Stats.Classes())
		}
		for _, class := range ref.Stats.Classes() {
			if leg.Stats.Class(class) != ref.Stats.Class(class) {
				t.Fatalf("%s class %s differs:\n%+v\nvs serial\n%+v",
					names[i], class, leg.Stats.Class(class), ref.Stats.Class(class))
			}
		}
	}
}

// TestStreamWindowInvariance is the core acceptance test of parallel
// serving: across three seeds, RunStream with EnableParallelWindows at
// 1 and 8 workers matches the serial rack-cell run exactly.
func TestStreamWindowInvariance(t *testing.T) {
	for _, seed := range []uint64{11, 12, 13} {
		assertLegsIdentical(t, cellLegs(t, smallStreamSpec(seed)))
	}
}

// churnSpec is the crash-churn fault schedule for the invariance test:
// rolling crash+restart waves across several racks (different nodes,
// overlapping windows), plus probabilistic shuffle-fetch and task
// attempt failures so the retry machinery runs inside windows too.
// Every crash restarts, so the stream still drains completely.
func churnSpec() *faults.Spec {
	s := &faults.Spec{
		FetchFailRate:   0.02,
		TaskAttemptFail: &faults.TaskAttemptFail{Rate: 0.02},
	}
	// smallStreamSpec topology: 24 racks × 8 nodes, node IDs contiguous
	// per rack. Crash one node in every third rack, staggered through
	// the first half of the horizon.
	for r := 0; r < 24; r += 3 {
		s.NodeCrashes = append(s.NodeCrashes, faults.NodeCrash{
			At:           100 + float64(r)*35,
			Node:         r*8 + (r/3)%8,
			RestartAfter: 300,
		})
	}
	return s
}

// TestStreamWindowInvarianceFaults re-runs the invariance contract
// under crash churn: node loss, re-replication, container reclaim, and
// probabilistic retries all happen on rack shards inside windows, and
// the aggregates still match the serial leg bit for bit. Tuned mode
// rides along so per-cell tuner recycling is exercised as well.
func TestStreamWindowInvarianceFaults(t *testing.T) {
	spec := smallStreamSpec(11)
	spec.Faults = churnSpec()
	spec.Tuned = true
	legs := cellLegs(t, spec)
	assertLegsIdentical(t, legs)
	if legs[0].Stats.Class("cluster").Jobs != 0 {
		t.Fatal("cluster pseudo-class should never finish jobs")
	}
}

// TestStreamParallelRejectsCrossCellState pins the guard rails: the
// rack-cell path refuses spec combinations that would share mutable
// state across cells.
func TestStreamParallelRejectsCrossCellState(t *testing.T) {
	mustPanic := func(name string, mutate func(*StreamSpec)) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: parallel stream did not panic", name)
			}
			msg := fmt.Sprint(r)
			if !strings.Contains(msg, "incompatible") {
				t.Fatalf("%s: unexpected panic %v", name, r)
			}
		}()
		spec := smallStreamSpec(11)
		spec.Parallel = 2
		mutate(&spec)
		RunStream(spec)
	}
	mustPanic("warmstart", func(s *StreamSpec) { s.Tuned = true; s.WarmStart = true })
	mustPanic("sink", func(s *StreamSpec) { s.Sink = trace.Discard })
}
