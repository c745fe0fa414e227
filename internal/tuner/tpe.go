package tuner

import (
	"math"
	"sort"

	"repro/internal/lhs"
	"repro/internal/metrics"
)

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
// proposal trace. Tighten leaves the history as observed: the model
// may know regions the §6.2 rules later forbade, but it can no longer
// propose into them.
type tpe struct {
	search

	history []evaluation // all completed evaluations, normalized points
	budget  int          // total evaluation budget

	warmCenter []float64 // normalized; non-nil on warm start
}

func newTPE(o Options) *tpe {
	sp := o.Search
	t := &tpe{
		search: newSearch("tpe", o),
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
		t.warmBest(w)
		t.warmCenter = make([]float64, len(o.Params))
		for d := range t.warmCenter {
			t.warmCenter[d] = t.normalize(d, t.best[d])
		}
		t.history = append(t.history, evaluation{point: append([]float64(nil), t.warmCenter...), cost: w.BestCost}) //mrlint:ignore retained-append bounded by the search budget; a search lives for one job's test run
		t.budget = (sp.GlobalBudget/2 + 1) * sp.N
	}
	t.startWave()
	return t
}

// startWave opens the next batch of proposals, truncated to the
// remaining budget.
func (t *tpe) startWave() {
	var points [][]float64
	switch {
	case t.warmCenter != nil && t.waves == 0:
		// Warm first wave: the stored best plus an LHS sample of its
		// neighborhood under the current bounds.
		nb := lhs.Neighborhood(t.space, t.raw(t.warmCenter), t.sp.InitialNeighbors)
		points = append(points, append([]float64(nil), t.best...))
		points = append(points, lhs.Sample(t.rng, nb, t.sp.N)...)
	case len(t.history) == 0:
		// Cold startup: defaults-seeded LHS over the whole space, the
		// same shape as the hill backend's first global wave.
		seed := make([]float64, len(t.params))
		for i, p := range t.params {
			seed[i] = p.Default
		}
		points = append(points, seed)
		points = append(points, lhs.Sample(t.rng, t.space, t.sp.M)...)
	default:
		for i := 0; i < t.sp.N; i++ {
			points = append(points, t.propose())
		}
	}
	if remain := t.budget - len(t.history); len(points) > remain {
		points = points[:remain]
	}
	t.beginWave(points)
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
			x := metrics.Clamp(center+float64(t.rng.NormFloat64()*bw), loN, hiN)
			score := parzen(good, d, x, bw) / (parzen(bad, d, x, bw) + 1e-9)
			if score > bestScore {
				bestX, bestScore = x, score
			}
		}
		point[d] = bestX
	}
	return t.raw(point)
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

func (t *tpe) State() string {
	if len(t.history) <= t.sp.M {
		return "startup"
	}
	return "model"
}

func (t *tpe) Report(point []float64, cost float64) {
	if t.done {
		return
	}
	norm := make([]float64, len(point))
	for d := range point {
		norm[d] = t.normalize(d, point[d])
	}
	// The history is the model's training set; it is bounded by the
	// evaluation budget and read on every model wave, never trimmed.
	t.history = append(t.history, evaluation{point: norm, cost: cost}) //mrlint:ignore retained-append bounded by the evaluation budget; the history IS the surrogate model
	t.offer(point, cost)
	if !t.observe(cost) {
		return
	}
	if len(t.history) >= t.budget {
		t.done = true
		return
	}
	t.startWave()
}
