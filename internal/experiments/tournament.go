package experiments

import (
	"math"
	"runtime"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/tuner"
	"repro/internal/workload"
)

// TournamentSpec configures the optimizer-backend tournament: every
// registered backend tunes every app, cold and warm, clean and under
// DefaultCrashSpec's churn.
type TournamentSpec struct {
	Apps []workload.Benchmark
}

// DefaultTournamentSpec covers three Table 3 apps with distinct
// resource profiles (map-, compute-, and shuffle-intensive-adjacent).
func DefaultTournamentSpec() TournamentSpec {
	apps := []string{"wordcount/Wikipedia", "invertedindex/Freebase", "textsearch/Wikipedia"}
	var spec TournamentSpec
	for _, name := range apps {
		b, err := workload.ByName(name)
		if err != nil {
			panic(err)
		}
		spec.Apps = append(spec.Apps, b)
	}
	return spec
}

// TournamentRow is one (app, backend) cell of the tournament.
type TournamentRow struct {
	Bench   string
	Backend string

	// Clean leg: one cold expedited test run, then the recommendation
	// re-run standalone.
	Evals      int     // total search evaluations (both scopes)
	Waves      int     // total completed search waves (both scopes)
	TestRunDur float64 // test-run duration (the tuning overhead)
	TunedDur   float64 // run duration under BestConfig
	FinalCost  float64 // summed per-scope best Eq. 1 cost
	// TestsTo15 counts the evaluations each scope needed to get within
	// 15% of the best final cost ANY backend reached on this app
	// (summed over scopes) — the paper's tests-to-convergence metric,
	// scored against the cross-backend frontier.
	TestsTo15 int

	// Churn leg: the same tuning with the fault spec armed, then the
	// churn-derived recommendation re-run under the same faults.
	ChurnTestDur  float64
	ChurnTunedDur float64
	ChurnFailed   bool

	// Warm leg: a second same-class job warm-started from the clean
	// leg's store entry. ColdWaves repeats Waves for side-by-side
	// reading; WarmWaves must come out strictly smaller.
	ColdWaves int
	WarmWaves int
	WarmDur   float64 // warm test run duration

	mapTraj []float64 // clean-leg convergence curves, for TestsTo15
	redTraj []float64
}

// Tournament runs the backend tournament and returns one row per
// (app, backend), grouped by app in spec order. TestsTo15 is scored
// after all backends of an app have run, against the app's
// cross-backend best final cost.
func (e Env) Tournament(spec TournamentSpec) []TournamentRow {
	backends, fspec := tuner.Backends(), DefaultCrashSpec()
	nb := len(backends)
	rows := make([]TournamentRow, len(spec.Apps)*nb)
	parallelFor(len(rows), runtime.GOMAXPROCS(0), func(i int) {
		rows[i] = e.tournamentCell(spec.Apps[i/nb], backends[i%nb], fspec)
	})
	// Score tests-to-within-15% against each app's cross-backend best.
	for a := 0; a < len(spec.Apps); a++ {
		group := rows[a*nb : (a+1)*nb]
		bestMap, bestRed := math.Inf(1), math.Inf(1)
		for _, r := range group {
			bestMap = math.Min(bestMap, finalCost(r.mapTraj))
			bestRed = math.Min(bestRed, finalCost(r.redTraj))
		}
		for i := range group {
			group[i].TestsTo15 = evalsToWithin(group[i].mapTraj, bestMap, 1.15) +
				evalsToWithin(group[i].redTraj, bestRed, 1.15)
		}
	}
	return rows
}

func (e Env) tournamentCell(b workload.Benchmark, backend string, fspec *faults.Spec) TournamentRow {
	row := TournamentRow{Bench: b.Name, Backend: backend}

	// Clean leg, feeding a private knowledge base for the warm leg below.
	kb := core.NewKnowledgeBase()
	clean := Env{Seed: e.Seed, Backend: backend, KB: kb}
	tn, test := clean.AggressiveTestRun(b)
	row.TestRunDur = test.Duration
	row.TunedDur = clean.RunOne(b, tn.BestConfig(), nil).Duration
	row.mapTraj, row.redTraj = tn.Trajectories()
	row.Evals = len(row.mapTraj) + len(row.redTraj)
	mw, rw := tn.TestWaves()
	row.Waves = mw + rw
	row.ColdWaves = row.Waves
	row.FinalCost = finalCost(row.mapTraj) + finalCost(row.redTraj)

	// Churn leg: tune and re-run with the fault spec armed.
	churn := Env{Seed: e.Seed, Backend: backend, FaultSpec: fspec}
	ctn, ctest := churn.AggressiveTestRun(b)
	crun := churn.RunOne(b, ctn.BestConfig(), nil)
	row.ChurnTestDur = ctest.Duration
	row.ChurnTunedDur = crun.Duration
	row.ChurnFailed = ctest.Failed || crun.Failed

	// Warm leg: a later job of the same class, different seed, seeded
	// from the clean leg's knowledge-base entry.
	warm := Env{Seed: e.Seed + 1, Backend: backend, KB: kb}
	wtn, wtest := warm.AggressiveTestRun(b)
	wmw, wrw := wtn.TestWaves()
	row.WarmWaves = wmw + wrw
	row.WarmDur = wtest.Duration
	return row
}

// finalCost is the last value of a best-cost-so-far trajectory.
func finalCost(traj []float64) float64 {
	if len(traj) == 0 {
		return math.Inf(1)
	}
	return traj[len(traj)-1]
}

// evalsToWithin returns the 1-based index of the first trajectory
// entry within factor× of target (the evaluations spent to get there),
// or the full trajectory length when the search never got that close.
func evalsToWithin(traj []float64, target, factor float64) int {
	for i, v := range traj {
		if v <= target*factor {
			return i + 1
		}
	}
	return len(traj)
}
