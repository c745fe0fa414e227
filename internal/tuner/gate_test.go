package tuner

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/lhs"
)

// TestEmptyWaveEndsSearch: a wave with no points can never complete,
// so it must end the search instead of leaving Done and HasPending
// both false, which makes core.Tuner.AllowLaunch hold every remaining
// task. Once every handed-out point is reported, the search is either
// done or has a point to hand out.
func TestEmptyWaveEndsSearch(t *testing.T) {
	params := mapDims()
	cost := scriptedCost(params)
	for _, tc := range []struct {
		name, backend string
		sp            SearchParams
		warm          *ScopeState
	}{
		// N is 0, so the first local wave samples no points.
		{"hill N=0", "hill", SearchParams{M: 4}, nil},
		// The budget (G/2+1)·N = 1 is spent by the warm anchor, so the
		// first wave is truncated to nothing.
		{"tpe warm, budget spent", "tpe", SearchParams{M: 4, N: 1, GlobalBudget: 1}, goldenWarmState()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := MustNew(tc.backend, Options{Params: params, RNG: rand.New(rand.NewSource(1)), Search: tc.sp, Warm: tc.warm})
			for wave := 0; !opt.Done(); wave++ {
				if !opt.HasPending() {
					t.Fatalf("stalled after %d waves: not done and nothing pending", opt.Waves())
				}
				if wave == 1000 {
					t.Fatalf("not done after %d waves", wave)
				}
				var held [][]float64
				for p := opt.Next(); p != nil; p = opt.Next() {
					held = append(held, p)
				}
				for _, p := range held {
					opt.Report(p, cost(p))
				}
			}
		})
	}
}

// FuzzBackendScript drives a backend, cold or warm-started, under
// search knobs and a script of Next, Report, Tighten and Bias calls
// decoded from the input. Every proposal must be finite and inside
// its parameter's full bounds, Waves must never decrease, the
// trajectory must end at the lowest cost reported, Export must agree
// with Best, and the wave gate must never stall: with no point held,
// a search that is not done has a point to hand out.
func FuzzBackendScript(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 23, 15, 23, 2, 2, 5, 2, 0, 0, 0, 0, 1, 0, 1, 0, 2, 1, 3, 3, 1, 2, 0, 0, 1, 0})
	f.Add([]byte("smart hill climbing over waves of LHS samples, narrowed by gray-box rules"))
	// Warm tpe with N=1 and GlobalBudget=1: the warm anchor spends the
	// whole budget, and the first wave used to come out empty.
	f.Add([]byte{2, 1, 3, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0})
	params := mapDims()
	cost := scriptedCost(params)
	warm := goldenWarmState()
	weights := []lhs.Weights{nil, {1, 1, 2, 3}, {3, 2, 1, 1}, {0, 0, 0, 1}}
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		next := func(n int) int {
			if pos >= len(data) {
				return 0
			}
			pos++
			return int(data[pos-1]) % n
		}
		backend := Backends()[next(len(backends))]
		o := Options{Params: params, RNG: rand.New(rand.NewSource(int64(len(data))))}
		if next(2) == 1 {
			o.Warm = warm
		}
		o.Search = SearchParams{
			M:                1 + next(24),
			N:                1 + next(16),
			K:                next(25),
			Nt:               []float64{0.1, 0.01, 0.3, 0}[next(4)],
			ShrinkFactor:     []float64{0.75, 0.5, 0.9, 0}[next(4)],
			GlobalBudget:     next(6),
			InitialNeighbors: []float64{0.2, 0.05, 0.5, 1}[next(4)],
			PlainRandom:      next(2) == 1,
		}
		opt := MustNew(backend, o)
		frac := func() float64 { return float64(next(11)-1) / 8 } // -1/8 .. 9/8
		var held [][]float64
		minCost, waves := math.Inf(1), 0
		for step := 0; step < 1024; step++ {
			if w := opt.Waves(); w < waves {
				t.Fatalf("step %d: Waves went from %d to %d", step, waves, w)
			} else {
				waves = w
			}
			if traj := opt.Trajectory(); len(traj) > 0 && traj[len(traj)-1] != minCost {
				t.Fatalf("step %d: trajectory ends at %v, lowest reported cost is %v", step, traj[len(traj)-1], minCost)
			}
			best, bestCost, ok := opt.Best()
			if st := opt.Export(); st.HaveBest != ok || (ok && (st.BestCost != bestCost || len(st.Best) != len(best))) {
				t.Fatalf("step %d: Export %+v disagrees with Best (%v, %v, %v)", step, st, best, bestCost, ok)
			}
			if len(held) == 0 && !opt.Done() && !opt.HasPending() {
				t.Fatalf("step %d: %s stalled: not done, nothing pending, nothing held", step, backend)
			}
			if pos >= len(data) {
				return
			}
			switch next(4) {
			case 0:
				p := opt.Next()
				if p == nil {
					break
				}
				for d, prm := range params {
					if math.IsNaN(p[d]) || p[d] < prm.Min || p[d] > prm.Max {
						t.Fatalf("step %d: proposal %s=%v outside [%v, %v]", step, prm.Name, p[d], prm.Min, prm.Max)
					}
				}
				held = append(held, p)
			case 1:
				if len(held) == 0 {
					break
				}
				i := next(len(held))
				p := held[i]
				held = append(held[:i], held[i+1:]...)
				c := cost(p) + float64(next(16))/8
				if !opt.Done() {
					minCost = math.Min(minCost, c)
				}
				opt.Report(p, c)
			case 2:
				prm := params[next(len(params))]
				r := prm.Max - prm.Min
				opt.Tighten(prm.ID, prm.Min+frac()*r, prm.Min+frac()*r)
			case 3:
				opt.Bias(params[next(len(params))].ID, weights[next(len(weights))])
			}
		}
	})
}
