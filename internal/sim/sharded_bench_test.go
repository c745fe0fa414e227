package sim

import (
	"fmt"
	"testing"
)

// synthConfig sizes the synthetic cluster workload used by the scaling
// benchmarks: a rack-sharded cluster of heartbeat chains plus a set of
// concurrent jobs on the system shard that dispatch tasks to racks and
// collect completions — the event-flow shape of the real model
// (nodes/fabric on rack shards, RM/AM on the system shard) without the
// model's own cost, so the benchmark isolates the engine.
type synthConfig struct {
	racks        int
	nodesPerRack int
	jobs         int
	waves        int     // task dispatch→complete round trips per job
	horizon      float64 // heartbeat chains stop at this time
	heartbeat    float64
}

// synth10k is the acceptance-criteria workload: 10k nodes (313 racks ×
// 32), 1000 concurrent jobs. ~2M events per run.
var synth10k = synthConfig{racks: 313, nodesPerRack: 32, jobs: 1000, waves: 10, horizon: 600, heartbeat: 3}

// synthJobs stresses cross-shard job traffic rather than node count.
var synthJobs = synthConfig{racks: 64, nodesPerRack: 4, jobs: 1000, waves: 50, horizon: 60, heartbeat: 5}

// runSynthetic wires the workload onto eng and runs it to completion,
// returning the number of events fired. sharded selects the layout:
// one shard per rack, or everything on the system shard (the
// single-heap layout, for apples-to-apples comparison). The logical
// schedule is identical either way.
func runSynthetic(eng *Engine, cfg synthConfig, sharded bool) uint64 {
	sys := eng.SystemShard()
	racks := make([]*Shard, cfg.racks)
	for r := range racks {
		if sharded {
			racks[r] = eng.NewShard(fmt.Sprintf("rack%03d", r))
		} else {
			racks[r] = sys
		}
	}

	// Per-node heartbeat chains, phase-staggered so heartbeats spread
	// over the interval instead of arriving in bursts.
	totalNodes := cfg.racks * cfg.nodesPerRack
	for r := 0; r < cfg.racks; r++ {
		sh := racks[r]
		for n := 0; n < cfg.nodesPerRack; n++ {
			phase := cfg.heartbeat * float64(r*cfg.nodesPerRack+n) / float64(totalNodes)
			beats := 0
			var beat func()
			beat = func() {
				beats++
				if sh.Now()+cfg.heartbeat <= cfg.horizon {
					sh.After(cfg.heartbeat, beat)
				}
			}
			sh.At(phase+0.001, beat)
		}
	}

	// Concurrent jobs: each job runs waves of dispatch→execute→complete
	// round trips, hopping system shard → rack shard → system shard via
	// Send.
	done := 0
	for j := 0; j < cfg.jobs; j++ {
		j := j
		var wave func(w int)
		wave = func(w int) {
			if w >= cfg.waves {
				done++
				return
			}
			dst := racks[(j+w*17)%cfg.racks]
			sys.Send(dst, 1.0+float64(j%7)*0.01, func() {
				dst.Send(sys, 1.0+float64(w%5)*0.02, func() { wave(w + 1) })
			})
		}
		sys.At(0.1+float64(j)*0.003, func() { wave(0) })
	}

	eng.Run()
	if done != cfg.jobs {
		panic(fmt.Sprintf("synthetic workload finished %d of %d jobs", done, cfg.jobs))
	}
	return eng.Processed()
}

// TestSyntheticWorkloadLayoutInvariant checks (on a scaled-down config)
// that the synthetic benchmark workload fires the same number of events
// on the single-shard and rack-sharded layouts — the benchmark legs
// really do run the same schedule.
func TestSyntheticWorkloadLayoutInvariant(t *testing.T) {
	cfg := synthConfig{racks: 16, nodesPerRack: 4, jobs: 50, waves: 5, horizon: 60, heartbeat: 3}
	a := runSynthetic(NewEngine(), cfg, false)
	b := runSynthetic(NewEngine(), cfg, true)
	if a != b {
		t.Fatalf("event counts differ across layouts: single=%d sharded=%d", a, b)
	}
	if a == 0 {
		t.Fatal("synthetic workload fired no events")
	}
}

// BenchmarkSharded10kNode is the acceptance-criteria benchmark: 10k
// nodes, 1000 concurrent jobs, rack-per-shard layout.
func BenchmarkSharded10kNode(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		events += runSynthetic(NewEngine(), synth10k, true)
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// BenchmarkSharded10kNodeSingleShard is the same workload forced onto
// one shard — the old single-heap layout on the new engine — isolating
// the sharding win from engine-implementation drift.
func BenchmarkSharded10kNodeSingleShard(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		events += runSynthetic(NewEngine(), synth10k, false)
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// BenchmarkConcurrentJobs stresses cross-shard send traffic: 1000 jobs
// doing 50 dispatch→complete round trips each across 64 rack shards.
func BenchmarkConcurrentJobs(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		events += runSynthetic(NewEngine(), synthJobs, true)
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}
