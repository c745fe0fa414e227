package tuner

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/lhs"
	"repro/internal/mrconf"
)

// mapDims mirrors core's gray-box map-scope search space.
func mapDims() []mrconf.Param {
	ids := []mrconf.ParamID{mrconf.MapMemoryMB, mrconf.IOSortMB, mrconf.MapCPUVcores, mrconf.IOSortFactor}
	out := make([]mrconf.Param, len(ids))
	for i, id := range ids {
		out[i] = id.Param()
	}
	return out
}

func hillOver(params []mrconf.Param, seed int64, sp SearchParams) *hillClimb {
	return newHillClimb(Options{Params: params, RNG: rand.New(rand.NewSource(seed)), Search: sp})
}

// drive runs an optimizer against a synthetic cost surface until it
// converges or maxEvals is hit, returning the evaluation count.
func drive(o Optimizer, cost func([]float64) float64, maxEvals int) int {
	evals := 0
	for !o.Done() && evals < maxEvals {
		p := o.Next()
		if p == nil {
			// Wave fully assigned; with a synchronous driver this
			// cannot happen because we report immediately.
			break
		}
		evals++
		o.Report(p, cost(p))
	}
	return evals
}

// sphere builds a convex cost with minimum at target (normalized).
func sphere(params []mrconf.Param, target []float64) func([]float64) float64 {
	return func(p []float64) float64 {
		sum := 0.0
		for i := range p {
			span := params[i].Max - params[i].Min
			d := (p[i] - target[i]) / span
			sum += d * d
		}
		return sum
	}
}

func TestHillClimbConvergesOnConvexSurface(t *testing.T) {
	params := mapDims()
	target := make([]float64, len(params))
	for i, p := range params {
		target[i] = p.Min + 0.7*(p.Max-p.Min)
	}
	h := hillOver(params, 1, DefaultSearchParams())
	evals := drive(h, sphere(params, target), 5000)
	best, bestCost, ok := h.Best()
	if !ok {
		t.Fatal("no best point found")
	}
	if bestCost > 0.05 {
		t.Fatalf("best cost %v after %d evals, want < 0.05 (best %v, target %v)",
			bestCost, evals, best, target)
	}
	if !h.Done() {
		t.Fatalf("search not done after %d evals", evals)
	}
}

func TestHillClimbBeatsPureRandom(t *testing.T) {
	params := mapDims()
	target := make([]float64, len(params))
	for i, p := range params {
		target[i] = p.Min + 0.31*(p.Max-p.Min)
	}
	cost := sphere(params, target)

	h := hillOver(params, 3, DefaultSearchParams())
	evals := drive(h, cost, 5000)
	_, hcCost, _ := h.Best()

	rng := rand.New(rand.NewSource(3))
	randBest := math.Inf(1)
	for i := 0; i < evals; i++ {
		p := make([]float64, len(params))
		for d, prm := range params {
			p[d] = prm.Min + rng.Float64()*(prm.Max-prm.Min)
		}
		if c := cost(p); c < randBest {
			randBest = c
		}
	}
	if hcCost > randBest {
		t.Fatalf("hill climbing (%v) worse than random search (%v) at equal budget %d",
			hcCost, randBest, evals)
	}
}

func TestFirstWaveSeededWithDefaults(t *testing.T) {
	params := mapDims()
	h := hillOver(params, 4, DefaultSearchParams())
	first := h.Next()
	for i, p := range params {
		if first[i] != p.Default {
			t.Fatalf("first point dim %s = %v, want default %v", p.Name, first[i], p.Default)
		}
	}
}

func TestSeedPointProtectsAgainstBadSamples(t *testing.T) {
	// Cost surface where the default is optimal: the search must
	// return (essentially) the default, never something worse.
	params := mapDims()
	target := make([]float64, len(params))
	for i, p := range params {
		target[i] = p.Default
	}
	cost := sphere(params, target)
	h := hillOver(params, 5, DefaultSearchParams())
	drive(h, cost, 5000)
	_, bestCost, _ := h.Best()
	if bestCost > 1e-9 {
		t.Fatalf("seeded default not retained as best: cost %v", bestCost)
	}
}

func TestWaveGating(t *testing.T) {
	params := mapDims()
	sp := DefaultSearchParams()
	h := hillOver(params, 6, sp)
	// Drain the first wave without reporting: Next must eventually
	// return nil (gate closed).
	var points [][]float64
	for {
		p := h.Next()
		if p == nil {
			break
		}
		points = append(points, p)
	}
	if len(points) != sp.M+1 { // +1 for the default seed
		t.Fatalf("first wave handed out %d points, want %d", len(points), sp.M+1)
	}
	if h.HasPending() {
		t.Fatal("HasPending true after draining the wave")
	}
	// Report all but one: still gated.
	for _, p := range points[:len(points)-1] {
		h.Report(p, 1.0)
	}
	if h.Next() != nil {
		t.Fatal("gate opened before the wave completed")
	}
	h.Report(points[len(points)-1], 0.5)
	if h.Next() == nil {
		t.Fatal("no new wave after the previous one completed")
	}
}

func TestTightenClampsBestAndBounds(t *testing.T) {
	params := mapDims()
	h := hillOver(params, 8, DefaultSearchParams())
	target := make([]float64, len(params))
	for i, p := range params {
		target[i] = p.Min
	}
	drive(h, sphere(params, target), 200)
	h.Tighten(mrconf.IOSortMB, 500, 800)
	lo, hi := h.Bounds(mrconf.IOSortMB)
	if lo != 500 || hi != 800 {
		t.Fatalf("bounds = [%v, %v], want [500, 800]", lo, hi)
	}
	best, _, ok := h.Best()
	if ok {
		for i, p := range params {
			if p.ID == mrconf.IOSortMB {
				if best[i] < 500 || best[i] > 800 {
					t.Fatalf("best io.sort.mb %v outside tightened bounds", best[i])
				}
			}
		}
	}
	// Degenerate tighten (hi < lo) must not panic and must keep
	// lo <= hi.
	h.Tighten(mrconf.IOSortMB, 700, 600)
	lo, hi = h.Bounds(mrconf.IOSortMB)
	if hi < lo {
		t.Fatalf("degenerate bounds [%v, %v]", lo, hi)
	}
}

// TestTightenUnknownPanics: on every backend, Tighten, Bias and Bounds
// of a parameter outside the searched dimensions panic, and the panic
// names the parameter's Hadoop key.
func TestTightenUnknownPanics(t *testing.T) {
	const outside = mrconf.ShuffleMergePct // a reduce-scope parameter; mapDims is map-scope
	calls := []struct {
		name string
		call func(Optimizer)
	}{
		{"Tighten", func(o Optimizer) { o.Tighten(outside, 0.3, 0.6) }},
		{"Bias", func(o Optimizer) { o.Bias(outside, lhs.Weights{1, 2}) }},
		{"Bounds", func(o Optimizer) { o.Bounds(outside) }},
	}
	for _, backend := range Backends() {
		for _, c := range calls {
			opt := MustNew(backend, Options{Params: mapDims(), RNG: rand.New(rand.NewSource(9))})
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				c.call(opt)
				return ""
			}()
			if !strings.Contains(msg, outside.Param().Name) {
				t.Errorf("%s.%s of an unsearched dimension: panic %q, want one naming %s",
					backend, c.name, msg, outside.Param().Name)
			}
		}
	}
}

func TestSearchTerminatesWithinBudget(t *testing.T) {
	// Even with a pathological (constant) cost surface the search must
	// terminate: global budget g bounds the iterations.
	params := mapDims()
	h := hillOver(params, 10, DefaultSearchParams())
	evals := drive(h, func([]float64) float64 { return 1 }, 100000)
	if !h.Done() {
		t.Fatalf("search did not terminate (evals=%d)", evals)
	}
	if evals > 2000 {
		t.Fatalf("search used %d evals on a constant surface", evals)
	}
}

func TestApplyPointQuantized(t *testing.T) {
	params := mapDims()
	point := make([]float64, len(params))
	for i, p := range params {
		point[i] = p.Min + 0.333*(p.Max-p.Min)
	}
	cfg := ApplyPoint(mrconf.Default(), params, point)
	for i, p := range params {
		v := cfg.Get(p.ID)
		if v != p.Quantize(point[i]) {
			t.Fatalf("%s=%v, want the quantized coordinate %v", p.Name, v, p.Quantize(point[i]))
		}
		if v != p.Quantize(v) {
			t.Fatalf("%s=%v not quantized", p.Name, v)
		}
	}
}

// The aggressive tuner renders each task's point with ApplyPoint: a
// point that changes nothing hands back the base itself without
// allocating, and one that changes several values costs one copy.
func TestApplyPointNoOpIsAllocationFree(t *testing.T) {
	base := mrconf.Default().With(mrconf.IOSortMB, 400)
	dims := []mrconf.Param{mrconf.IOSortMB.Param()}
	point := []float64{400}
	var cfg mrconf.Config
	if a := testing.AllocsPerRun(100, func() {
		cfg = ApplyPoint(base, dims, point)
	}); a != 0 {
		t.Errorf("ApplyPoint allocates %v per run, want 0", a)
	}
	if !cfg.Same(base) {
		t.Fatal("a no-op point did not return the base config")
	}
	dims = append(dims, mrconf.ReduceMemoryMB.Param(), mrconf.SortSpillPercent.Param())
	point = []float64{500, 3072, 0.9}
	if a := testing.AllocsPerRun(100, func() {
		cfg = ApplyPoint(base, dims, point)
	}); a > 1 {
		t.Errorf("ApplyPoint with three changed values allocates %v per run, want at most 1", a)
	}
	if cfg.SortMB() != 500 || cfg.ReduceMemMB() != 3072 || cfg.SpillPct() != 0.9 {
		t.Fatalf("ApplyPoint = %v, want the three values applied", cfg)
	}
}

// Property: for any cost surface drawn from random quadratics the
// search returns a point no worse than the first wave's best.
func TestSearchMonotoneProperty(t *testing.T) {
	params := mapDims()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		target := make([]float64, len(params))
		for i, p := range params {
			target[i] = p.Min + rng.Float64()*(p.Max-p.Min)
		}
		cost := sphere(params, target)
		h := hillOver(params, seed+1, DefaultSearchParams())
		firstWaveBest := math.Inf(1)
		evals := 0
		for !h.Done() && evals < 3000 {
			p := h.Next()
			if p == nil {
				break
			}
			c := cost(p)
			if evals <= DefaultSearchParams().M && c < firstWaveBest {
				firstWaveBest = c
			}
			evals++
			h.Report(p, c)
		}
		_, bestCost, ok := h.Best()
		return ok && bestCost <= firstWaveBest+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestLHSBeatsPlainRandomSampling quantifies the weighted-LHS design
// choice (§5: LHS "leads to higher quality sampling"): over many random
// convex surfaces, the best point of the FIRST global wave — where
// stratification governs coverage — must beat independent uniform
// draws on average. (After full convergence both samplers are limited
// by the k-interval grid, so the first wave is where the choice shows.)
func TestLHSBeatsPlainRandomSampling(t *testing.T) {
	params := mapDims()
	m := DefaultSearchParams().M
	sumLHS, sumRand := 0.0, 0.0
	const trials = 500
	for seed := int64(0); seed < trials; seed++ {
		rng := rand.New(rand.NewSource(seed))
		target := make([]float64, len(params))
		for i, p := range params {
			target[i] = p.Min + rng.Float64()*(p.Max-p.Min)
		}
		cost := sphere(params, target)

		firstWaveBest := func(plain bool) float64 {
			sp := DefaultSearchParams()
			sp.PlainRandom = plain
			h := hillOver(params, seed+1000, sp)
			h.Next() // discard the deterministic default seed point
			best := math.Inf(1)
			for i := 0; i < m; i++ {
				p := h.Next()
				if p == nil {
					break
				}
				if c := cost(p); c < best {
					best = c
				}
			}
			return best
		}
		sumLHS += firstWaveBest(false)
		sumRand += firstWaveBest(true)
	}
	if sumLHS >= sumRand {
		t.Fatalf("first-wave LHS mean cost %.4f not better than uniform %.4f",
			sumLHS/trials, sumRand/trials)
	}
}

// TestSamplesOnKGrid checks the §5 granularity: every sampled
// coordinate lies on the midpoint grid of k=24 intervals.
func TestSamplesOnKGrid(t *testing.T) {
	params := mapDims()
	sp := DefaultSearchParams()
	h := hillOver(params, 12, sp)
	h.Next() // skip the default-config seed point
	for {
		p := h.Next()
		if p == nil {
			break
		}
		for d, prm := range params {
			r := prm.Max - prm.Min
			pos := (p[d] - prm.Min) / r * float64(sp.K)
			// Must be at an interval midpoint: pos - 0.5 is an integer.
			frac := pos - 0.5
			if math.Abs(frac-math.Round(frac)) > 1e-9 {
				t.Fatalf("dim %s sample %v not on the k=%d grid", prm.Name, p[d], sp.K)
			}
		}
	}
}

func TestPhaseStrings(t *testing.T) {
	if phaseGlobal.String() != "global" || phaseLocal.String() != "local" || phaseDone.String() != "done" {
		t.Fatal("phase strings broken")
	}
}
