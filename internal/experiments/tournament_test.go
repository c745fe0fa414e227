package experiments

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/tuner"
	"repro/internal/workload"
)

// smallTournamentSpec runs all registered backends on one full-size
// Table 3 app — big enough for every backend to complete multiple
// search waves, small enough for the race detector.
func smallTournamentSpec(t *testing.T) TournamentSpec {
	b, err := workload.ByName("wordcount/Wikipedia")
	if err != nil {
		t.Fatal(err)
	}
	return TournamentSpec{Apps: []workload.Benchmark{b}}
}

// TestTournamentShape checks every cell of a one-app tournament is
// structurally sound: evaluations and waves happened, costs are
// finite, the convergence metric lands inside the trajectory, the
// churn leg survived the crash spec, and the warm leg restarted in
// strictly fewer waves than the cold one.
func TestTournamentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("tournament in -short mode")
	}
	rows := DefaultEnv().Tournament(smallTournamentSpec(t))
	if len(rows) != len(tuner.Backends()) {
		t.Fatalf("got %d rows, want one per backend (%d)", len(rows), len(tuner.Backends()))
	}
	for _, r := range rows {
		if r.Evals <= 0 || r.Waves <= 0 {
			t.Errorf("%s/%s: evals=%d waves=%d, want both > 0", r.Bench, r.Backend, r.Evals, r.Waves)
		}
		if math.IsInf(r.FinalCost, 0) || math.IsNaN(r.FinalCost) || r.FinalCost <= 0 {
			t.Errorf("%s/%s: final cost %v not finite positive", r.Bench, r.Backend, r.FinalCost)
		}
		if r.TestsTo15 < 1 || r.TestsTo15 > r.Evals {
			t.Errorf("%s/%s: TestsTo15=%d outside [1,%d]", r.Bench, r.Backend, r.TestsTo15, r.Evals)
		}
		if r.TunedDur <= 0 || r.TunedDur >= r.TestRunDur {
			t.Errorf("%s/%s: tuned run %vs not faster than test run %vs",
				r.Bench, r.Backend, r.TunedDur, r.TestRunDur)
		}
		if r.ChurnFailed {
			t.Errorf("%s/%s: churn leg failed under the crash spec", r.Bench, r.Backend)
		}
		if r.WarmWaves <= 0 || r.WarmWaves >= r.ColdWaves {
			t.Errorf("%s/%s: warm waves %d not strictly fewer than cold %d",
				r.Bench, r.Backend, r.WarmWaves, r.ColdWaves)
		}
	}
}

// TestTournamentDeterministic pins the same-seed contract across the
// parallelFor fan-out: cell results depend only on (app, backend,
// seed), never on scheduling order.
func TestTournamentDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("tournament in -short mode")
	}
	spec := smallTournamentSpec(t)
	a := DefaultEnv().Tournament(spec)
	b := DefaultEnv().Tournament(spec)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed tournaments differ:\n%+v\nvs\n%+v", a, b)
	}
}
