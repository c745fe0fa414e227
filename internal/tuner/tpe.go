package tuner

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/lhs"
	"repro/internal/metrics"
	"repro/internal/mrconf"
)

func init() {
	Register("tpe", func(o Options) Optimizer { return newTPE(o) })
}

const (
	// tpeGamma is the good/bad quantile split: the best quarter of the
	// history models l(x), the rest models g(x).
	tpeGamma = 0.25
	// tpeCandidates is how many samples from l(x) compete per proposed
	// coordinate; the l/g density-ratio argmax wins.
	tpeCandidates = 24
	// tpeMinBandwidth floors the normalized kernel width so the model
	// never collapses onto its observations.
	tpeMinBandwidth = 0.04
)

// tpe is a Tree-structured Parzen Estimator in the style of Bergstra
// et al., reduced to what the stdlib provides: the history is split at
// the γ-quantile of cost into good and bad sets, each dimension gets a
// pair of Parzen (Gaussian-kernel) densities l(x) and g(x) built over
// the normalized coordinates of those sets, and each proposed
// coordinate is the best of tpeCandidates draws from l(x) scored by
// the density ratio l(x)/g(x) — maximizing which is equivalent to
// maximizing expected improvement. Dimensions are modeled
// independently (the "tree" of the original is the per-dimension
// factorization of the search space).
//
// The first wave is the same LHS startup the hill backend uses (the
// model needs observations before it has an opinion); subsequent waves
// are model-guided. Like the other backends it is wave-oriented, and
// every draw comes from Options.RNG in a fixed order: same seed, same
// proposal trace.
type tpe struct {
	params []mrconf.Param
	space  lhs.Space // current (rule-tightened) bounds
	full   lhs.Space // original bounds
	rng    *rand.Rand
	sp     SearchParams

	history []evaluation // all completed evaluations, normalized points
	budget  int          // total evaluation budget

	pending     [][]float64
	waveCount   int // completed reports in the current wave
	waveSize    int
	outstanding int

	best     []float64 // raw space
	bestCost float64
	haveBest bool
	done     bool

	warmCenter []float64 // normalized; non-nil on warm start

	waves int
	evals int
	traj  trajectory
}

func newTPE(o Options) *tpe {
	params, sp := o.Params, o.Search
	space := make(lhs.Space, len(params))
	for i, p := range params {
		space[i] = lhs.Dim{Name: p.Name, Min: p.Min, Max: p.Max}
	}
	t := &tpe{
		params: params,
		space:  space,
		full:   append(lhs.Space(nil), space...),
		rng:    o.RNG,
		sp:     sp,
		// Cold budget ≈ the hill backend's footprint: one LHS startup
		// wave of M+1 plus GlobalBudget+2 model waves of N (the paper's
		// knobs give 25 + 7·16 = 137 evaluations).
		budget: sp.M + 1 + (sp.GlobalBudget+2)*sp.N,
	}
	if w := o.warmFor(); w != nil {
		// Warm start: skip the global LHS startup. The stored best
		// seeds both the history (so the model has an anchor) and the
		// first wave, which samples its neighborhood; the budget drops
		// to a refinement's worth of model waves.
		t.best = append([]float64(nil), w.Best...)
		for d, dim := range t.space {
			t.best[d] = metrics.Clamp(t.best[d], dim.Min, dim.Max)
		}
		t.bestCost = w.BestCost
		t.haveBest = true
		t.warmCenter = make([]float64, len(params))
		for d := range t.warmCenter {
			t.warmCenter[d] = t.normalize(d, t.best[d])
		}
		t.history = append(t.history, evaluation{point: append([]float64(nil), t.warmCenter...), cost: w.BestCost}) //mrlint:ignore retained-append bounded by the search budget; a search lives for one job's test run
		t.budget = (t.sp.GlobalBudget/2 + 1) * t.sp.N
	}
	t.startWave()
	return t
}

func (t *tpe) normalize(d int, v float64) float64 {
	r := t.full[d].Range()
	if r <= 0 {
		return 0
	}
	return metrics.Clamp((v-t.full[d].Min)/r, 0, 1)
}

func (t *tpe) denormalize(d int, x float64) float64 {
	v := t.full[d].Min + x*t.full[d].Range()
	return metrics.Clamp(v, t.space[d].Min, t.space[d].Max)
}

// startWave fills pending with the next batch of proposals.
func (t *tpe) startWave() {
	t.waveCount = 0
	t.outstanding = 0
	t.pending = t.pending[:0]
	switch {
	case t.warmCenter != nil && t.waves == 0:
		// Warm first wave: the stored best plus an LHS sample of its
		// neighborhood under the current bounds.
		nb := lhs.Neighborhood(t.space, t.rawOf(t.warmCenter), t.sp.InitialNeighbors)
		t.pending = append(t.pending, append([]float64(nil), t.best...))
		t.pending = append(t.pending, lhs.Sample(t.rng, nb, t.sp.N)...)
	case len(t.history) == 0:
		// Cold startup: defaults-seeded LHS over the whole space, the
		// same shape as the hill backend's first global wave.
		seed := make([]float64, len(t.params))
		for i, p := range t.params {
			seed[i] = p.Default
		}
		t.pending = append(t.pending, seed)
		t.pending = append(t.pending, lhs.Sample(t.rng, t.space, t.sp.M)...)
	default:
		for i := 0; i < t.sp.N; i++ {
			t.pending = append(t.pending, t.propose())
		}
	}
	if remain := t.budget - len(t.history); len(t.pending) > remain {
		t.pending = t.pending[:remain]
	}
	t.waveSize = len(t.pending)
}

func (t *tpe) rawOf(norm []float64) []float64 {
	p := make([]float64, len(norm))
	for d := range norm {
		p[d] = t.denormalize(d, norm[d])
	}
	return p
}

// propose builds one model-guided point: per dimension, tpeCandidates
// draws from the good-set kernel density, scored by l/g.
func (t *tpe) propose() []float64 {
	good, bad := t.split()
	point := make([]float64, len(t.params))
	for d := range t.params {
		bw := t.bandwidth(len(good))
		loN, hiN := t.normalize(d, t.space[d].Min), t.normalize(d, t.space[d].Max)
		bestX, bestScore := 0.0, math.Inf(-1)
		for c := 0; c < tpeCandidates; c++ {
			// Draw from l(x): a random good observation jittered by the
			// kernel, truncated to the current bounds.
			center := good[t.rng.Intn(len(good))].point[d]
			x := metrics.Clamp(center+t.rng.NormFloat64()*bw, loN, hiN)
			score := parzen(good, d, x, bw) / (parzen(bad, d, x, bw) + 1e-9)
			if score > bestScore {
				bestX, bestScore = x, score
			}
		}
		point[d] = t.denormalize(d, bestX)
	}
	return point
}

// split orders the history by cost and cuts it at the γ-quantile.
// Ties break on insertion order, so the split is deterministic.
func (t *tpe) split() (good, bad []evaluation) {
	idx := make([]int, len(t.history))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return t.history[idx[a]].cost < t.history[idx[b]].cost
	})
	nGood := int(math.Ceil(tpeGamma * float64(len(idx))))
	if nGood < 1 {
		nGood = 1
	}
	if nGood > len(idx) {
		nGood = len(idx)
	}
	good = make([]evaluation, 0, nGood)
	bad = make([]evaluation, 0, len(idx)-nGood)
	for i, j := range idx {
		if i < nGood {
			good = append(good, t.history[j])
		} else {
			bad = append(bad, t.history[j])
		}
	}
	return good, bad
}

// bandwidth scales the kernel width down as the good set grows.
func (t *tpe) bandwidth(nGood int) float64 {
	return math.Max(tpeMinBandwidth, 1/float64(nGood+2))
}

// parzen evaluates a Gaussian kernel-density mixture over set's
// normalized d-coordinates at x, plus a small uniform floor so empty
// or distant sets don't zero the ratio.
func parzen(set []evaluation, d int, x, bw float64) float64 {
	if len(set) == 0 {
		return 1
	}
	sum := 0.0
	for _, e := range set {
		z := (x - e.point[d]) / bw
		sum += math.Exp(-0.5 * z * z)
	}
	return sum/float64(len(set)) + 0.05
}

func (t *tpe) Done() bool            { return t.done }
func (t *tpe) HasPending() bool      { return len(t.pending) > 0 }
func (t *tpe) Waves() int            { return t.waves }
func (t *tpe) Trajectory() []float64 { return t.traj.Trajectory() }

func (t *tpe) State() string {
	if len(t.history) <= t.sp.M {
		return "startup"
	}
	return "model"
}

func (t *tpe) Next() []float64 {
	if t.done || len(t.pending) == 0 {
		return nil
	}
	p := t.pending[0]
	t.pending = t.pending[1:]
	t.outstanding++
	return p
}

func (t *tpe) Report(point []float64, cost float64) {
	if t.done {
		return
	}
	t.evals++
	t.traj.observe(cost)
	norm := make([]float64, len(point))
	for d := range point {
		norm[d] = t.normalize(d, point[d])
	}
	// The history is the model's training set; it is bounded by the
	// evaluation budget and read on every model wave, never trimmed.
	t.history = append(t.history, evaluation{point: norm, cost: cost}) //mrlint:ignore retained-append bounded by the evaluation budget; the history IS the surrogate model
	if !t.haveBest || cost < t.bestCost {
		t.best = append(t.best[:0], point...)
		t.bestCost = cost
		t.haveBest = true
	}
	t.waveCount++
	t.outstanding--
	if t.waveCount >= t.waveSize && t.outstanding <= 0 && len(t.pending) == 0 {
		t.endWave()
	}
}

func (t *tpe) endWave() {
	t.waves++
	if len(t.history) >= t.budget {
		t.done = true
		return
	}
	t.startWave()
}

func (t *tpe) Best() ([]float64, float64, bool) {
	return t.best, t.bestCost, t.haveBest
}

func (t *tpe) Export() ScopeState {
	st := ScopeState{
		Backend:  "tpe",
		Names:    paramNames(t.params),
		BestCost: t.bestCost,
		HaveBest: t.haveBest,
		Evals:    t.evals,
		Waves:    t.waves,
	}
	if t.haveBest {
		st.Best = append([]float64(nil), t.best...)
	}
	return st
}

// Tighten narrows a dimension's bounds (§6.2 gray-box rule); the best
// point is clamped and future proposals are truncated to the new
// range. History stays as observed — the model may know about regions
// the rules later forbade, but it can no longer propose into them.
func (t *tpe) Tighten(name string, lo, hi float64) {
	d := t.dimIndex(name)
	fullLo, fullHi := t.full[d].Min, t.full[d].Max
	lo = metrics.Clamp(lo, fullLo, fullHi)
	hi = metrics.Clamp(hi, fullLo, fullHi)
	if hi < lo {
		hi = lo
	}
	t.space[d].Min, t.space[d].Max = lo, hi
	if t.haveBest {
		t.best[d] = metrics.Clamp(t.best[d], lo, hi)
	}
}

// Bias is a no-op: the Parzen model already concentrates sampling
// where observed costs are low, which subsumes the §6.2 bias hints.
func (t *tpe) Bias(name string, w lhs.Weights) {
	t.dimIndex(name) // still validate the dimension
}

// Bounds returns the current bounds of a dimension.
func (t *tpe) Bounds(name string) (lo, hi float64) {
	d := t.dimIndex(name)
	return t.space[d].Min, t.space[d].Max
}

func (t *tpe) dimIndex(name string) int {
	for d := range t.space {
		if t.space[d].Name == name {
			return d
		}
	}
	panic(fmt.Sprintf("tuner: unknown dimension %q", name))
}

var (
	_ Optimizer = (*tpe)(nil)
	_ Shaper    = (*tpe)(nil)
)
