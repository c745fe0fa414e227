package tuner

import (
	"math/rand"

	"repro/internal/lhs"
	"repro/internal/mrconf"
)

type searchPhase int

const (
	phaseGlobal searchPhase = iota
	phaseLocal
	phaseDone
)

func (p searchPhase) String() string {
	switch p {
	case phaseGlobal:
		return "global"
	case phaseLocal:
		return "local"
	default:
		return "done"
	}
}

// hillClimb is the gray-box smart hill-climbing search over one
// parameter subspace (map-scope or reduce-scope), restructured as a
// streaming state machine: points are handed out one at a time to
// tasks, costs come back asynchronously, and each completed wave
// triggers one step of Algorithm 1. This is the paper's own search,
// moved verbatim from internal/core behind the Optimizer interface —
// its RNG draw sequence is pinned bit-exact by a golden test against
// a frozen copy of the pre-refactor code.
type hillClimb struct {
	search

	weights []lhs.Weights // optional per-dim sampling bias
	phase   searchPhase
	wave    []evaluation // the current wave's measurements
	nbSize  float64
	globals int
}

// newHillClimb builds a search over the given parameters. A valid
// warm state skips the initial global wave entirely: the search starts
// in the local phase centered on the stored best with the global
// budget nearly spent, so one neighborhood refinement is all a
// warm-started job pays.
func newHillClimb(o Options) *hillClimb {
	sp := o.Search
	h := &hillClimb{search: newSearch("hill", o), weights: make([]lhs.Weights, len(o.Params))}
	if w := o.warmFor(); w != nil {
		h.warmBest(w)
		h.nbSize = sp.InitialNeighbors
		h.phase = phaseLocal
		h.globals = sp.GlobalBudget - 1
		// Seed the wave with the stored best itself, so this job's
		// measurements re-anchor its cost under current conditions and
		// the recommendation never regresses below the class's
		// best-known configuration.
		seed := append([]float64(nil), h.best...)
		h.startWave(append([][]float64{seed}, h.sample(sp.N, lhs.Neighborhood(h.space, h.best, h.nbSize))...))
		return h
	}
	// Seed the first wave with the current (default) configuration so
	// the search never recommends something worse than its starting
	// point — the tuning process of Fig 3 starts from "a default
	// configuration or a configuration based on rough understanding".
	seed := make([]float64, len(o.Params))
	for i, p := range o.Params {
		seed[i] = p.Default
	}
	h.startWave(append([][]float64{seed}, h.sample(sp.M, h.space)...))
	return h
}

// sample draws one wave's points over space: weighted LHS, or
// independent uniform draws under PlainRandom.
func (h *hillClimb) sample(size int, space lhs.Space) [][]float64 {
	var points [][]float64
	if h.sp.PlainRandom {
		points = uniformSample(h.rng, space, size)
	} else {
		points = lhs.WeightedSample(h.rng, space, h.weights, size)
	}
	// Snap each coordinate to the paper's k-interval grid (§5: "the
	// LHS interval k indicates the granularity of each parameter
	// interval, set to 24"): samples land on interval midpoints.
	if h.sp.K > 1 {
		for _, p := range points {
			snapToGrid(p, space, h.sp.K)
		}
	}
	return points
}

// startWave opens a wave; an empty one ends the search.
func (h *hillClimb) startWave(points [][]float64) {
	h.wave = h.wave[:0]
	h.beginWave(points)
	if h.done {
		h.phase = phaseDone
	}
}

// snapToGrid moves point coordinates to the midpoints of k equal
// intervals of each dimension.
func snapToGrid(point []float64, space lhs.Space, k int) {
	for d, dim := range space {
		r := dim.Range()
		if r <= 0 {
			point[d] = dim.Min
			continue
		}
		idx := int((point[d] - dim.Min) / r * float64(k))
		if idx >= k {
			idx = k - 1
		}
		if idx < 0 {
			idx = 0
		}
		point[d] = dim.Min + (float64(idx)+0.5)*r/float64(k)
	}
}

// uniformSample draws points independently (no stratification), for
// the LHS ablation.
func uniformSample(rng *rand.Rand, space lhs.Space, m int) [][]float64 {
	out := make([][]float64, m)
	for i := range out {
		p := make([]float64, len(space))
		for d, dim := range space {
			p[d] = dim.Min + float64(rng.Float64()*dim.Range())
		}
		out[i] = p
	}
	return out
}

// Report feeds back the measured cost of an assigned point. When the
// wave is complete it advances Algorithm 1 by one step.
func (h *hillClimb) Report(point []float64, cost float64) {
	if h.done {
		return
	}
	h.wave = append(h.wave, evaluation{point: point, cost: cost})
	if h.observe(cost) {
		h.endWave()
	}
}

func (h *hillClimb) endWave() {
	cand, candCost := h.waveBest()
	switch h.phase {
	case phaseGlobal:
		if !h.haveBest || candCost < h.bestCost {
			h.best, h.bestCost, h.haveBest = cand, candCost, true
			h.nbSize = h.sp.InitialNeighbors
			h.phase = phaseLocal
			h.startWave(h.sample(h.sp.N, lhs.Neighborhood(h.space, h.best, h.nbSize)))
			return
		}
		h.nextGlobal()
	case phaseLocal:
		if candCost < h.bestCost {
			// A better point: recenter and keep exploring (adjust_neighbor).
			h.best, h.bestCost = cand, candCost
		} else {
			h.nbSize *= h.sp.ShrinkFactor
		}
		if h.nbSize < h.sp.Nt {
			// Local optimum found; resume the global phase.
			h.nextGlobal()
			return
		}
		h.startWave(h.sample(h.sp.N, lhs.Neighborhood(h.space, h.best, h.nbSize)))
	}
}

// nextGlobal spends one global iteration: a fresh global wave, or the
// end of the search once the budget g is spent.
func (h *hillClimb) nextGlobal() {
	h.globals++
	if h.globals >= h.sp.GlobalBudget {
		h.phase, h.done = phaseDone, true
		return
	}
	h.phase = phaseGlobal
	h.startWave(h.sample(h.sp.M, h.space))
}

// waveBest returns the completed wave's lowest-cost point; a wave that
// completes holds at least one measurement.
func (h *hillClimb) waveBest() ([]float64, float64) {
	best := h.wave[0]
	for _, e := range h.wave[1:] {
		if e.cost < best.cost {
			best = e
		}
	}
	return best.point, best.cost
}

// State names the current Algorithm 1 phase.
func (h *hillClimb) State() string { return h.phase.String() }

// Bias sets a sampling weight profile for one dimension (weighted
// LHS): nil restores uniform sampling.
func (h *hillClimb) Bias(id mrconf.ParamID, w lhs.Weights) { h.weights[h.dim(id)] = w }
