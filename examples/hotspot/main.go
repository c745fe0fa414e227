// Hot spots and stragglers: three nodes develop severe background
// interference mid-job (a co-located service hogging disk and CPU).
// This example compares four responses — doing nothing, speculative
// execution, MRONLINE's utilization-aware placement, and both — and
// prints a per-node occupancy Gantt so the straggling nodes are
// visible.
//
//	go run ./examples/hotspot
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mapreduce"
	"repro/internal/mrconf"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/yarn"
)

func main() {
	env := experiments.Env{Seed: 42}
	fmt.Println("Terasort 20GB; 3 nodes develop severe interference at t=3s")
	fmt.Println()

	st := env.StragglerStudy(3)
	fmt.Printf("%-28s %8s\n", "mitigation", "job time")
	fmt.Printf("%-28s %7.0fs\n", "none", st.NoneDur)
	fmt.Printf("%-28s %7.0fs  (%d copies launched, %d won)\n", "speculative execution", st.SpeculationDur, st.SpecLaunches, st.SpecWins)
	fmt.Printf("%-28s %7.0fs\n", "hot-spot avoidance", st.AvoidanceDur)
	fmt.Printf("%-28s %7.0fs\n", "both", st.BothDur)

	// Re-run the "both" configuration with a trace to visualize it.
	b := workload.Terasort(20, 0, 0)
	rig := env.NewRig(yarn.FIFOScheduler{})
	rig.Eng.At(3, func() { rig.Interfere(3) })
	core.EnableHotSpotAvoidance(rig.RM, rig.FS)
	rec := &trace.Recorder{}
	rig.Run(mapreduce.Spec{
		Benchmark:   b,
		BaseConfig:  mrconf.Default(),
		Speculation: mapreduce.DefaultSpeculation(),
		Trace:       rec,
	})

	fmt.Println("\nper-node occupancy with both mitigations (nodes 00-02 are hot):")
	fmt.Print(rec.Gantt(90))
}
