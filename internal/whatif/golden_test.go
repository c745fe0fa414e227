package whatif_test

import (
	"fmt"
	"testing"

	"repro/internal/experiments"
	"repro/internal/mrconf"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// TestExploreGolden pins every prediction of the question
// examples/whatif asks: Terasort 60 GB observed once on the seed-42
// testbed, calibrated, then swept over five reducer counts and three
// slowstarts.
func TestExploreGolden(t *testing.T) {
	b := workload.Terasort(60, 0, 0)
	observed := experiments.Env{Seed: 42}.RunOne(b, mrconf.Default(), nil)
	preds, err := whatif.Explore(whatif.Question{
		Benchmark:    whatif.CalibrateFromRun(b, observed),
		Config:       mrconf.Default(),
		ReduceCounts: []int{28, 56, 112, 224, 448},
		Slowstarts:   []float64{0.05, 0.5, 0.9},
		Seed:         42,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"448 0.5 323.98216575769237",
		"448 0.05 325.5466348964223",
		"448 0.9 329.7839313261922",
		"224 0.05 337.3864283314031",
		"224 0.5 339.06500746011307",
		"224 0.9 340.18125878910115",
		"112 0.9 340.7636365679836",
		"112 0.05 346.570003028131",
		"112 0.5 347.068659610048",
		"56 0.5 393.2129586703265",
		"56 0.9 402.20309669228476",
		"28 0.9 431.47245816060024",
		"56 0.05 438.9296244672941",
		"28 0.05 549.6905906301041",
		"28 0.5 605.0642265243544",
	}
	if len(preds) != len(want) {
		t.Fatalf("predictions = %d, want %d", len(preds), len(want))
	}
	for i, p := range preds {
		if got := fmt.Sprintf("%d %v %v", p.NumReduces, p.Slowstart, p.PredictedSecs); got != want[i] {
			t.Errorf("prediction %d = %q, want %q", i, got, want[i])
		}
	}
}
