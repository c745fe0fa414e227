package main

import (
	"math"
	"testing"
)

// tracesFixture is `go tool pprof -traces` output in its real format.
const tracesFixture = `File: mrbench
Build ID: 580f7e165e007b24df349fec1f187b38c90b7b21
Type: cpu
Time: 2026-01-01 00:00:00 UTC
Duration: 1.52s, Total samples = 2.86s (188.16%)
-----------+-------------------------------------------------------
      50ms   repro/internal/yarn.(*ResourceManager).assign.func1
             repro/internal/yarn.(*ResourceManager).assign
             repro/internal/sim.(*Engine).RunUntil
             main.main
             runtime.main
-----------+-------------------------------------------------------
      10ms   runtime.mallocgc
             runtime.growslice
             repro/internal/cluster.(*Fabric).AddLink
             repro/internal/cluster.New
             repro/internal/experiments.RunStream
             main.main
-----------+-------------------------------------------------------
      20ms   runtime.markBits.setMarked (inline)
             runtime.greyobject
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      1.20s   sort.Float64s
             repro/internal/lhs.Sample
             repro/internal/tuner.(*Hill).Next (inline)
             repro/internal/core.(*Tuner).wave
-----------+-------------------------------------------------------
      30ms   main.countingSink.Add
             repro/internal/trace.teeSink.Add
             repro/internal/mapreduce.(*Job).traceTask
-----------+-------------------------------------------------------
      1.5s   repro/internal/sim.(*Engine).RunUntil
             repro/internal/experiments.RunStream
-----------+-------------------------------------------------------
      50ms   runtime.futex
             runtime.mcall
`

func TestReduceTraces(t *testing.T) {
	got, err := reduceTraces(tracesFixture)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"yarn":    0.05, // innermost repository frame wins over its callers
		"cluster": 0.01, // runtime frames fold into the layer that called them
		"tuner":   1.20, // so do unlisted repository packages (lhs)
		"trace":   0.03, // and the benchmark's own frames
		"sim":     1.5,
		"gc":      0.07, // stacks with no repository frame
	}
	for _, l := range append(append([]string{}, layers...), gcLayer) {
		if math.Abs(got[l]-want[l]) > 1e-9 {
			t.Errorf("%s = %v, want %v", l, got[l], want[l])
		}
	}
	if len(got) != len(layers)+1 {
		t.Errorf("got %d layers, want %d", len(got), len(layers)+1)
	}
}

func TestReduceTracesRejectsBadDuration(t *testing.T) {
	if _, err := reduceTraces("-----------+---\n      10parsecs   main.main\n"); err == nil {
		t.Fatal("bad duration accepted")
	}
}
