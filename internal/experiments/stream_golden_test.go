package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/faults"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/*_golden.json digests from the current code")

const streamGoldenPath = "testdata/stream_golden.json"

// streamGolden is one pinned serving run: the sha256 of its Report(),
// the engine's event count, and how many events an attached counting
// Sink saw (0 when the leg attaches none).
type streamGolden struct {
	Report string `json:"report_sha256"`
	Events uint64 `json:"events"`
	Sink   int    `json:"sink_events"`
}

// countSink counts the trace events it receives.
type countSink int

func (c *countSink) Add(trace.Event) { *c++ }

// churnSpec is the crash-churn fault schedule of the golden's churn
// legs: rolling crash+restart waves across several racks (different
// nodes, overlapping windows), plus probabilistic shuffle-fetch and
// task attempt failures so the retry machinery runs too. Every crash
// restarts, so the stream still drains completely.
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

// degradeSpec is the node-addressed fault schedule of the golden's
// cells-degrade leg, on smallStreamSpec's 24 × 8 layout: a slow node, a
// degraded disk and a flapping link, each outside rack 0, and a crash
// in the last rack. In rack-cell mode each fault reaches its rack's
// cell renumbered, so the leg pins that renumbering for every
// node-addressed kind.
func degradeSpec() *faults.Spec {
	return &faults.Spec{
		NodeSlow:     []faults.NodeSlow{{At: 0, Node: 1*8 + 2, Factor: 0.3}},
		DiskDegrades: []faults.DiskDegrade{{At: 60, Node: 2*8 + 5, Factor: 0.2}},
		LinkFlaps:    []faults.LinkFlap{{At: 0, Node: 3*8 + 3, Window: 1500}},
		NodeCrashes:  []faults.NodeCrash{{At: 700, Node: 23*8 + 4, RestartAfter: 300}},
	}
}

// TestStreamReportGolden pins RunStream's output across both
// partitions, with and without crash churn and tuning: a change to the
// serving path that moves any simulated result shows up here as a
// digest diff. Regenerate with `go test ./internal/experiments -run
// TestStreamReportGolden -update` only when a behaviour change is meant.
func TestStreamReportGolden(t *testing.T) {
	legs := []struct {
		name string
		spec func(StreamSpec) StreamSpec
	}{
		{"whole", func(s StreamSpec) StreamSpec { return s }},
		{"whole-churn-tuned-sink", func(s StreamSpec) StreamSpec {
			s.Faults = churnSpec()
			s.Tuned = true
			s.Sink = new(countSink)
			return s
		}},
		{"cells", func(s StreamSpec) StreamSpec { s.Parallel = 1; return s }},
		{"cells-churn-tuned-p2", func(s StreamSpec) StreamSpec {
			s.Faults = churnSpec()
			s.Tuned = true
			s.Parallel = 2
			return s
		}},
		{"cells-degrade", func(s StreamSpec) StreamSpec {
			s.Faults = degradeSpec()
			s.Parallel = 2
			return s
		}},
		{"cells-churn-tuned-sink-p2", func(s StreamSpec) StreamSpec {
			s.Faults = churnSpec()
			s.Tuned = true
			s.Sink = new(countSink)
			s.Parallel = 2
			return s
		}},
	}
	got := make(map[string]streamGolden)
	for _, leg := range legs {
		for _, seed := range []uint64{11, 12, 13} {
			spec := leg.spec(smallStreamSpec(seed))
			res := RunStream(spec)
			sum := sha256.Sum256([]byte(res.Report()))
			g := streamGolden{Report: hex.EncodeToString(sum[:]), Events: res.Events}
			if c, ok := spec.Sink.(*countSink); ok {
				g.Sink = int(*c)
			}
			got[fmt.Sprintf("%s/%d", leg.name, seed)] = g
		}
	}

	// The degrade leg's faults must land on nodes that carry work, or
	// it pins nothing the plain cells leg does not.
	for _, seed := range []uint64{11, 12, 13} {
		if a, b := got[fmt.Sprintf("cells/%d", seed)], got[fmt.Sprintf("cells-degrade/%d", seed)]; a.Report == b.Report {
			t.Errorf("seed %d: cells-degrade digest equals the cells digest; its faults moved nothing", seed)
		}
	}

	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(streamGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(streamGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want map[string]streamGolden
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: got %+v, golden %+v", k, got[k], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d runs, golden has %d", len(got), len(want))
	}
}
