package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/stream_golden.json from the current code")

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
		{"cells", func(s StreamSpec) StreamSpec { s.cellSerial = true; return s }},
		{"cells-churn-tuned-p2", func(s StreamSpec) StreamSpec {
			s.Faults = churnSpec()
			s.Tuned = true
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
