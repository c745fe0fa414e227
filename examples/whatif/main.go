// What-if analysis for category-1 parameters: the number of reducers
// and the reduce slowstart fraction cannot change once a job starts
// (paper §2.2), so MRONLINE cannot tune them online. The paper defers
// them to simulation — this example is that path: observe one run,
// calibrate the simulator's workload profile to the measured data
// volumes, then sweep candidate settings offline and pick the best.
//
//	go run ./examples/whatif
package main

import (
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/mrconf"
	"repro/internal/whatif"
	"repro/internal/workload"
)

func main() {
	env := experiments.Env{Seed: 42}
	b := workload.Terasort(60, 0, 0) // paper defaults: 448 maps, 112 reduces

	fmt.Printf("observed run: Terasort 60GB with %d reducers, slowstart 0.05\n", b.NumReduces)
	observed := env.RunOne(b, mrconf.Default(), nil)
	fmt.Printf("  took %.0f s\n\n", observed.Duration)

	// Calibrate the profile to what the run actually measured, then
	// ask the simulator what other settings would have done.
	calibrated := whatif.CalibrateFromRun(b, observed)
	preds, err := whatif.Explore(whatif.Question{
		Benchmark:    calibrated,
		Config:       mrconf.Default(),
		ReduceCounts: []int{28, 56, 112, 224, 448},
		Slowstarts:   []float64{0.05, 0.5, 0.9},
		Seed:         42,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Println("what-if sweep (fastest first):")
	for i, p := range preds {
		marker := "  "
		if i == 0 {
			marker = "->"
		}
		fmt.Printf(" %s reduces=%4d slowstart=%.2f predicted=%5.0fs\n",
			marker, p.NumReduces, p.Slowstart, p.PredictedSecs)
	}

	best := preds[0]
	fmt.Printf("\nrecommendation: %d reducers, slowstart %.2f (%.0f%% vs observed settings)\n",
		best.NumReduces, best.Slowstart,
		100*(observed.Duration-best.PredictedSecs)/observed.Duration)
}
