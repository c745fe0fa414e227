// Quickstart: simulate one MapReduce job on the paper's 19-node
// cluster, first under the default YARN configuration and then with
// MRONLINE's conservative online tuning attached — the minimal "just
// co-execute MRONLINE with your application" workflow.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mrconf"
	"repro/internal/workload"
)

func main() {
	// Each run builds a fresh simulated testbed and drives the
	// discrete-event simulation to the job's completion.
	env := experiments.Env{Seed: 42}
	b := workload.Terasort(20, 0, 0) // 20 GB synthetic sort

	fmt.Printf("Terasort %d maps / %d reduces on 18 worker nodes\n\n", b.NumMaps, b.NumReduces)

	def := env.RunOne(b, mrconf.Default(), nil)
	fmt.Printf("default configuration:  %6.0f s, %.2e spilled records\n",
		def.Duration, def.Counters.SpilledRecords())

	tuner := core.NewTuner(b.Name, b.NumMaps, b.NumReduces, mrconf.Default(),
		core.TunerOptions{Strategy: core.Conservative, Seed: 42})
	tuned := env.RunOne(b, mrconf.Default(), tuner)
	fmt.Printf("MRONLINE conservative:  %6.0f s, %.2e spilled records\n",
		tuned.Duration, tuned.Counters.SpilledRecords())

	fmt.Printf("\nimprovement: %.0f%% — with zero test runs and no user effort\n",
		100*(def.Duration-tuned.Duration)/def.Duration)
	fmt.Println("\nconfiguration MRONLINE converged to:")
	fmt.Println(" ", tuner.BestConfig())
}
