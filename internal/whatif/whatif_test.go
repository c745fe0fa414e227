package whatif

import (
	"math"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/mrconf"
	"repro/internal/workload"
)

// mustExplore runs a sweep whose candidates are all valid.
func mustExplore(t *testing.T, q Question) []Prediction {
	t.Helper()
	preds, err := Explore(q)
	if err != nil {
		t.Fatal(err)
	}
	return preds
}

func TestExploreSorted(t *testing.T) {
	q := Question{
		Benchmark:    workload.Terasort(10, 0, 0),
		Config:       mrconf.Default(),
		ReduceCounts: []int{5, 19, 76},
		Slowstarts:   []float64{0.05, 0.9},
	}
	preds := mustExplore(t, q)
	if len(preds) != 6 {
		t.Fatalf("predictions = %d, want 6", len(preds))
	}
	for i := 1; i < len(preds); i++ {
		if preds[i].PredictedSecs < preds[i-1].PredictedSecs {
			t.Fatal("predictions not sorted by time")
		}
	}
}

func TestRecommendBeatsWorstCandidate(t *testing.T) {
	q := Question{
		Benchmark:    workload.Terasort(20, 0, 0),
		Config:       mrconf.Default(),
		ReduceCounts: []int{1, 37, 300},
		Slowstarts:   []float64{0.05},
	}
	preds := mustExplore(t, q)
	best, worst := preds[0], preds[len(preds)-1]
	if best.PredictedSecs >= worst.PredictedSecs {
		t.Fatal("no spread across reducer counts")
	}
	// One reducer for 20 GB serializes the reduce phase; it must not
	// be the recommendation.
	if best.NumReduces == 1 {
		t.Fatalf("recommended 1 reducer for a 20GB sort: %v", best)
	}
}

func TestDefaultCandidates(t *testing.T) {
	q := Question{Benchmark: workload.Terasort(10, 0, 0), Config: mrconf.Default()}
	wd := q.withDefaults()
	if len(wd.ReduceCounts) < 4 {
		t.Fatalf("default reducer ladder too small: %v", wd.ReduceCounts)
	}
	for _, n := range wd.ReduceCounts {
		if n < 1 {
			t.Fatalf("invalid candidate %d", n)
		}
	}
	if len(wd.Slowstarts) == 0 {
		t.Fatal("no default slowstarts")
	}
}

func TestSlowstartMatters(t *testing.T) {
	// For a shuffle-heavy job, launching reducers early (overlap with
	// maps) should beat launching them at 90% map completion.
	b := workload.Terasort(60, 0, 0)
	early := simulate(Question{Benchmark: b, Config: mrconf.Default(), Seed: 42}, b.NumReduces, 0.05)
	late := simulate(Question{Benchmark: b, Config: mrconf.Default(), Seed: 42}, b.NumReduces, 0.95)
	if early >= late {
		t.Fatalf("early slowstart (%.0fs) not faster than late (%.0fs) for shuffle-heavy job", early, late)
	}
}

func TestCalibrateFromRun(t *testing.T) {
	b := workload.Terasort(10, 0, 0)
	res := experiments.Env{Seed: 1}.RunOne(b, mrconf.Default(), nil)
	cal := CalibrateFromRun(b, res)
	// Terasort is identity: calibration should stay ~1.0 selectivity.
	sel := cal.Profile.RawMapSelectivity * cal.Profile.CombinerReduction
	if sel < 0.9 || sel > 1.1 {
		t.Fatalf("calibrated map selectivity %v, want ~1", sel)
	}
	if cal.Profile.ReduceSelectivity < 0.9 || cal.Profile.ReduceSelectivity > 1.1 {
		t.Fatalf("calibrated reduce selectivity %v, want ~1", cal.Profile.ReduceSelectivity)
	}
}

func TestDeterministic(t *testing.T) {
	q := Question{
		Benchmark:    workload.Terasort(10, 0, 0),
		Config:       mrconf.Default(),
		ReduceCounts: []int{19},
		Slowstarts:   []float64{0.05},
		Seed:         7,
	}
	a := mustExplore(t, q)[0].PredictedSecs
	b := mustExplore(t, q)[0].PredictedSecs
	if a != b {
		t.Fatalf("what-if not deterministic: %v vs %v", a, b)
	}
}

// The recommendation is Explore's first prediction.
func TestRecommendAndString(t *testing.T) {
	p := mustExplore(t, Question{
		Benchmark:    workload.Terasort(6, 0, 0),
		Config:       mrconf.Default(),
		ReduceCounts: []int{11, 23},
		Slowstarts:   []float64{0.05},
	})[0]
	if p.NumReduces != 11 && p.NumReduces != 23 {
		t.Fatalf("recommendation outside candidates: %+v", p)
	}
	if s := p.String(); s == "" {
		t.Fatal("empty String()")
	}
}

// Candidates the simulator cannot run as labelled are rejected before
// any simulation, naming the first offender.
func TestExploreRejectsBadCandidates(t *testing.T) {
	cases := []struct {
		name         string
		reduceCounts []int
		slowstarts   []float64
		want         string
	}{
		{"negative reduce count", []int{19, -3, -4}, nil, "reduce count -3 is negative"},
		{"NaN slowstart", nil, []float64{0.05, math.NaN()}, "slowstart NaN is not in (0, 1]"},
		{"infinite slowstart", nil, []float64{math.Inf(1)}, "slowstart +Inf is not in (0, 1]"},
		{"slowstart above one", nil, []float64{2}, "slowstart 2 is not in (0, 1]"},
		{"negative slowstart", nil, []float64{-1}, "slowstart -1 is not in (0, 1]"},
		{"zero slowstart", nil, []float64{0.5, 0, -1}, "slowstart 0 is not in (0, 1]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := Question{
				Benchmark:    workload.Terasort(2, 0, 0),
				Config:       mrconf.Default(),
				ReduceCounts: tc.reduceCounts,
				Slowstarts:   tc.slowstarts,
			}
			preds, err := Explore(q)
			if err == nil || !strings.Contains(err.Error(), tc.want) || preds != nil {
				t.Fatalf("Explore: preds=%v err=%v, want an error containing %q", preds, err, tc.want)
			}
		})
	}
}
