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
	defSecs, _ := def.Secs()
	fmt.Printf("default configuration:  %6.0f s, %.2e spilled records\n",
		defSecs, def.Counters.SpilledRecords())

	tuner := core.NewTuner(b.Name, b.NumMaps, b.NumReduces, mrconf.Default(),
		core.TunerOptions{Strategy: core.Conservative, Seed: 42})
	tuned := env.RunOne(b, mrconf.Default(), tuner)
	// A job that fails gives up early; its time is no result.
	secs, ok := tuned.Secs()
	if !ok {
		fmt.Printf("MRONLINE conservative:  failed after %.0f s\n", secs)
		return
	}
	fmt.Printf("MRONLINE conservative:  %6.0f s, %.2e spilled records\n",
		secs, tuned.Counters.SpilledRecords())

	imp, _ := experiments.Gain(def, tuned)
	fmt.Printf("\nimprovement: %.0f%% — with zero test runs and no user effort\n", 100*imp)
	fmt.Println("\nconfiguration MRONLINE converged to:")
	fmt.Println(" ", tuner.BestConfig())
}
