// Multi-tenant tuning (paper §8.5): Terasort (I/O heavy) and BBP
// (compute bound) share the cluster under YARN fair scheduling.
// MRONLINE tunes each application separately — shrinking Terasort's
// oversized containers, giving BBP's CPU-starved mappers more vcores —
// which raises cluster utilization and speeds up both jobs.
//
//	go run ./examples/multitenant
package main

import (
	"fmt"

	"repro/internal/experiments"
	"repro/internal/mapreduce"
)

func main() {
	env := experiments.Env{Seed: 42}
	fmt.Println("co-running Terasort 60GB (448 maps / 200 reduces) + BBP (100 maps / 1 reduce)")
	fmt.Println("fair-share scheduling on the 18-worker cluster")
	fmt.Println()

	mt := env.MultiTenant()

	fmt.Printf("%-10s %12s %12s %12s\n", "app", "default", "MRONLINE", "improvement")
	for _, app := range []struct {
		name     string
		def, mro mapreduce.Result
	}{
		{"Terasort", mt.Default.Terasort, mt.Mronline.Terasort},
		{"BBP", mt.Default.BBP, mt.Mronline.BBP},
	} {
		defSecs, _ := app.def.Secs()
		mroSecs, _ := app.mro.Secs()
		if imp, ok := experiments.Gain(app.def, app.mro); ok {
			fmt.Printf("%-10s %11.0fs %11.0fs %11.0f%%\n", app.name, defSecs, mroSecs, 100*imp)
		} else {
			fmt.Printf("%-10s %11.0fs %11.0fs %12s\n", app.name, defSecs, mroSecs, "(a job failed)")
		}
	}

	fmt.Println("\nmemory utilization (paper Fig 15):")
	fmt.Printf("  Terasort maps    %4.0f%% -> %4.0f%%\n", 100*mt.Default.Terasort.MapMemUtil, 100*mt.Mronline.Terasort.MapMemUtil)
	fmt.Printf("  Terasort reduces %4.0f%% -> %4.0f%%\n", 100*mt.Default.Terasort.ReduceMemUtil, 100*mt.Mronline.Terasort.ReduceMemUtil)
	fmt.Printf("  BBP maps         %4.0f%% -> %4.0f%%\n", 100*mt.Default.BBP.MapMemUtil, 100*mt.Mronline.BBP.MapMemUtil)

	fmt.Println("\nCPU utilization (paper Fig 16):")
	fmt.Printf("  BBP maps run at %.0f%% of their vcore allowance under the default\n", 100*mt.Default.BBP.MapCPUUtil)
	fmt.Println("  -> MRONLINE identifies the over-utilization and assigns them more vcores")

	fmt.Printf("\nTerasort spilled records: %.2e -> %.2e (paper: 1.8e9 -> 0.6e9)\n",
		mt.Default.Terasort.Counters.SpilledRecords(),
		mt.Mronline.Terasort.Counters.SpilledRecords())
}
