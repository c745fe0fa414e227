package sim

import (
	"fmt"
	"testing"
)

// BenchmarkEngineSchedule measures the schedule→fire round trip for a
// self-perpetuating event chain — the allocation pattern of every flow
// completion in the fabric.
func BenchmarkEngineSchedule(b *testing.B) {
	eng := NewEngine()
	b.ReportAllocs()
	left := b.N
	var step func()
	step = func() {
		left--
		if left > 0 {
			eng.After(1, step)
		}
	}
	eng.After(1, step)
	eng.Run()
}

// BenchmarkEngineScheduleFan measures a fan of events per step: each
// firing schedules several short-lived events and cancels one, the
// cancel/reschedule pattern of a fabric recomputation.
func BenchmarkEngineScheduleFan(b *testing.B) {
	eng := NewEngine()
	b.ReportAllocs()
	left := b.N
	var step func()
	step = func() {
		left--
		victim := eng.After(5, func() {})
		eng.After(0.5, func() {})
		eng.After(0.25, func() {})
		eng.Cancel(victim)
		if left > 0 {
			eng.After(1, step)
		}
	}
	eng.After(1, step)
	eng.Run()
}

// synthConfig sizes the synthetic cluster workload of the scaling
// benchmarks: per-node heartbeat chains plus concurrent jobs that
// dispatch tasks to racks and collect completions — the event-flow
// shape of the real model without the model's own cost, so the
// benchmark isolates the engine.
type synthConfig struct {
	racks        int
	nodesPerRack int
	jobs         int
	waves        int     // task dispatch→complete round trips per job
	horizon      float64 // heartbeat chains stop at this time
	heartbeat    float64
}

// synth10k: 10k nodes (313 racks × 32), 1000 concurrent jobs. ~2M
// events per run.
var synth10k = synthConfig{racks: 313, nodesPerRack: 32, jobs: 1000, waves: 10, horizon: 600, heartbeat: 3}

// synthJobs stresses job round trips rather than node count.
var synthJobs = synthConfig{racks: 64, nodesPerRack: 4, jobs: 1000, waves: 50, horizon: 60, heartbeat: 5}

// runSynthetic wires the workload onto eng and runs it to completion,
// returning the number of events fired.
func runSynthetic(eng *Engine, cfg synthConfig) uint64 {
	// Per-node heartbeat chains, phase-staggered so heartbeats spread
	// over the interval instead of arriving in bursts.
	totalNodes := cfg.racks * cfg.nodesPerRack
	for n := 0; n < totalNodes; n++ {
		phase := cfg.heartbeat * float64(n) / float64(totalNodes)
		var beat func()
		beat = func() {
			if eng.Now()+cfg.heartbeat <= cfg.horizon {
				eng.After(cfg.heartbeat, beat)
			}
		}
		eng.At(phase+0.001, beat)
	}

	// Concurrent jobs: each job runs waves of dispatch→execute→complete
	// round trips.
	done := 0
	for j := 0; j < cfg.jobs; j++ {
		j := j
		var wave func(w int)
		wave = func(w int) {
			if w >= cfg.waves {
				done++
				return
			}
			eng.After(1.0+float64(j%7)*0.01, func() {
				eng.After(1.0+float64(w%5)*0.02, func() { wave(w + 1) })
			})
		}
		eng.At(0.1+float64(j)*0.003, func() { wave(0) })
	}

	eng.Run()
	if done != cfg.jobs {
		panic(fmt.Sprintf("synthetic workload finished %d of %d jobs", done, cfg.jobs))
	}
	return eng.Processed()
}

func benchSynthetic(b *testing.B, cfg synthConfig) {
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		events += runSynthetic(NewEngine(), cfg)
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// BenchmarkSynthetic10kNode: 10k nodes, 1000 concurrent jobs.
func BenchmarkSynthetic10kNode(b *testing.B) { benchSynthetic(b, synth10k) }

// BenchmarkConcurrentJobs: 1000 jobs doing 50 dispatch→complete round
// trips each.
func BenchmarkConcurrentJobs(b *testing.B) { benchSynthetic(b, synthJobs) }
