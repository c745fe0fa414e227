package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"testing"

	"repro/internal/faults"
)

// TestMain lets the test binary serve as the child of the runs the
// tests start, exactly as the mrbench binary does.
func TestMain(m *testing.M) {
	if raw, ok := os.LookupEnv(childEnv); ok {
		os.Exit(childMain(raw))
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload on the reduced input through the
// child-process protocol and the output checks, split as BENCHMARK.json's
// runner splits it: -trace 0 (a set-up run and the timed runs that fit
// in -seconds, here one) must report exactly the end-to-end metrics, and
// -trace 1 (a baseline run, the one-worker run on day_cells, the traced
// run) exactly the per-layer ones.
func TestSmoke(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	timed := &bench{exe: exe, small: true, seconds: 1e-9, timed: true, log: io.Discard}
	traced := &bench{exe: exe, workDir: t.TempDir(), small: true, traced: true, log: io.Discard}
	for _, w := range workloads {
		for _, tc := range []struct {
			b    *bench
			want []metricDef
		}{{timed, endToEnd}, {traced, perLayer}} {
			wr := tc.b.runSet(w, w.seed)
			if wr.Failed != 0 || wr.Attempted == 0 {
				t.Errorf("%s: %d of %d runs failed: %v", w.name, wr.Failed, wr.Attempted, wr.Errors)
				continue
			}
			if len(wr.Metrics) != len(tc.want) {
				t.Errorf("%s: %d metrics, want %d", w.name, len(wr.Metrics), len(tc.want))
			}
			for _, d := range tc.want {
				s := wr.Metrics[d.Name]
				switch {
				case s == nil:
					t.Errorf("%s: metric %s missing", w.name, d.Name)
				case s.N != 1:
					t.Errorf("%s: metric %s has %d values, want 1", w.name, d.Name, s.N)
				case d.Bound > 0 && !(s.Median > 0):
					t.Errorf("%s: %s = %v, want positive", w.name, d.Name, s.Median)
				}
			}
			if w.name == "fault_day" && tc.b == traced && wr.Metrics["faults.node_down"].Median == 0 {
				t.Errorf("fault_day: no node went down")
			}
			if w.name == "day_cells" && tc.b == traced && wr.Metrics["sim.pool_speedup"].Median == 0 {
				t.Errorf("day_cells: no pool speed-up measured")
			}
		}
	}
}

// TestRunPairs runs two interleaved pairs of the reduced day, this test
// binary standing for both commits.
func TestRunPairs(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{exe: exe, small: true, runs: 2, log: io.Discard}
	base, head := b.runPairs(workloads[0], 7, exe)
	for _, wr := range []*workloadResult{base, head} {
		if wr.Attempted != 4 || wr.Failed != 0 {
			t.Fatalf("%d of %d runs failed, want 0 of 4: %v", wr.Failed, wr.Attempted, wr.Errors)
		}
		for _, d := range endToEnd {
			if s := wr.Metrics[d.Name]; s == nil || s.N != 2 {
				t.Errorf("metric %s = %+v, want 2 values", d.Name, s)
			}
		}
	}
	if base.Digest != head.Digest {
		t.Errorf("base digest %.12s, head %.12s", base.Digest, head.Digest)
	}
}

func TestChildFailureIsReported(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := child(exe, request{Workload: "day", Mode: "bogus", Small: true}); err == nil {
		t.Fatal("a child run with an unknown mode succeeded")
	}
}

// TestBenchmarkJSON pins the repository's BENCHMARK.json to the
// workload and metric tables of this package.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d = %+v, want %s: %s", i, bj.Workloads[i], w.name, w.why)
		}
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end = %+v\nwant %+v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer = %+v\nwant %+v", bj.PerLayer, perLayer)
	}
	if want := []string{"cmd/mrbench"}; !reflect.DeepEqual(bj.Paths, want) {
		t.Errorf("paths = %q, want %q", bj.Paths, want)
	}
}

func TestFaultDaySpec(t *testing.T) {
	fs, err := faults.Parse(faultDayJSON)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.NodeCrashes) != 12 || fs.FetchFailRate != 0.001 {
		t.Fatalf("spec has %d crashes and fetch_fail_rate %v, want 12 and 0.001", len(fs.NodeCrashes), fs.FetchFailRate)
	}
	for i, c := range fs.NodeCrashes {
		want := faults.NodeCrash{At: 1800 + 7200*float64(i), Node: 251 * i % 10016, RestartAfter: 600}
		if c != want {
			t.Errorf("crash %d = %+v, want %+v", i, c, want)
		}
	}
}

// TestQuartiles pins the quartiles to Python's
// statistics.quantiles(values, n=4).
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		values    []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{2, 4}, 1.5, 3, 4.5},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, m, q3 := quartiles(tc.values)
		if math.Abs(q1-tc.q1) > 1e-12 || m != tc.m || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.values, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}
