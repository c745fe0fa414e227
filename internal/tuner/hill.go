package tuner

import (
	"fmt"
	"math/rand"

	"repro/internal/lhs"
	"repro/internal/metrics"
	"repro/internal/mrconf"
)

func init() {
	Register("hill", func(o Options) Optimizer { return newHillClimb(o) })
}

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
	params []mrconf.Param
	space  lhs.Space // current (rule-tightened) bounds
	full   lhs.Space // original bounds
	rng    *rand.Rand
	sp     SearchParams

	weights []lhs.Weights // optional per-dim sampling bias

	phase       searchPhase
	pending     [][]float64
	waveSize    int
	wave        []evaluation
	outstanding int

	best     []float64
	bestCost float64
	haveBest bool
	nbSize   float64
	globals  int

	// waves counts completed waves, for diagnostics.
	waves int

	evals int
	traj  trajectory
}

// newHillClimb builds a search over the given parameters. A valid
// warm state skips the initial global wave entirely: the search starts
// in the local phase centered on the stored best with the global
// budget nearly spent, so one neighborhood refinement is all a
// warm-started job pays.
func newHillClimb(o Options) *hillClimb {
	params, sp := o.Params, o.Search
	space := make(lhs.Space, len(params))
	for i, p := range params {
		space[i] = lhs.Dim{Name: p.Name, Min: p.Min, Max: p.Max}
	}
	h := &hillClimb{
		params:  params,
		space:   space,
		full:    append(lhs.Space(nil), space...),
		rng:     o.RNG,
		sp:      sp,
		weights: make([]lhs.Weights, len(params)),
	}
	if w := o.warmFor(); w != nil {
		h.best = append([]float64(nil), w.Best...)
		for d, dim := range h.space {
			h.best[d] = metrics.Clamp(h.best[d], dim.Min, dim.Max)
		}
		h.bestCost = w.BestCost
		h.haveBest = true
		h.nbSize = sp.InitialNeighbors
		h.phase = phaseLocal
		h.globals = sp.GlobalBudget - 1
		h.startWave(sp.N, lhs.Neighborhood(h.space, h.best, h.nbSize))
		// Seed the wave with the stored best itself, so this job's
		// measurements re-anchor its cost under current conditions and
		// the recommendation never regresses below the class's
		// best-known configuration.
		seed := append([]float64(nil), h.best...)
		h.pending = append([][]float64{seed}, h.pending...)
		h.waveSize++
		return h
	}
	h.startWave(sp.M, h.space)
	// Seed the first wave with the current (default) configuration so
	// the search never recommends something worse than its starting
	// point — the tuning process of Fig 3 starts from "a default
	// configuration or a configuration based on rough understanding".
	seed := make([]float64, len(params))
	for i, p := range params {
		seed[i] = p.Default
	}
	h.pending = append([][]float64{seed}, h.pending...)
	h.waveSize++
	return h
}

func (h *hillClimb) startWave(size int, space lhs.Space) {
	if h.sp.PlainRandom {
		h.pending = uniformSample(h.rng, space, size)
	} else {
		h.pending = lhs.WeightedSample(h.rng, space, h.weights, size)
	}
	// Snap each coordinate to the paper's k-interval grid (§5: "the
	// LHS interval k indicates the granularity of each parameter
	// interval, set to 24"): samples land on interval midpoints.
	if h.sp.K > 1 {
		for _, p := range h.pending {
			snapToGrid(p, space, h.sp.K)
		}
	}
	h.waveSize = size
	h.wave = h.wave[:0]
	h.outstanding = 0
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
			p[d] = dim.Min + rng.Float64()*dim.Range()
		}
		out[i] = p
	}
	return out
}

// Done reports whether the search has converged.
func (h *hillClimb) Done() bool { return h.phase == phaseDone }

// HasPending reports whether an unassigned sampled point exists.
func (h *hillClimb) HasPending() bool { return len(h.pending) > 0 }

// Next pops the next sampled point for assignment to a task. It
// returns nil when the current wave is fully assigned (the launch gate
// then holds further tasks until the wave completes).
func (h *hillClimb) Next() []float64 {
	if h.phase == phaseDone || len(h.pending) == 0 {
		return nil
	}
	p := h.pending[0]
	h.pending = h.pending[1:]
	h.outstanding++
	return p
}

// Report feeds back the measured cost of an assigned point. When the
// wave is complete it advances Algorithm 1 by one step.
func (h *hillClimb) Report(point []float64, cost float64) {
	if h.phase == phaseDone {
		return
	}
	h.evals++
	h.traj.observe(cost)
	h.wave = append(h.wave, evaluation{point: point, cost: cost})
	h.outstanding--
	if len(h.wave) >= h.waveSize && h.outstanding <= 0 && len(h.pending) == 0 {
		h.endWave()
	}
}

func (h *hillClimb) endWave() {
	h.waves++
	cand, candCost := h.waveBest()
	switch h.phase {
	case phaseGlobal:
		if !h.haveBest || candCost < h.bestCost {
			h.best, h.bestCost, h.haveBest = cand, candCost, true
			h.nbSize = h.sp.InitialNeighbors
			h.phase = phaseLocal
			h.startWave(h.sp.N, lhs.Neighborhood(h.space, h.best, h.nbSize))
			return
		}
		h.globals++
		if h.globals >= h.sp.GlobalBudget {
			h.phase = phaseDone
			return
		}
		h.startWave(h.sp.M, h.space)
	case phaseLocal:
		if candCost < h.bestCost {
			// A better point: recenter and keep exploring (adjust_neighbor).
			h.best, h.bestCost = cand, candCost
		} else {
			h.nbSize *= h.sp.ShrinkFactor
		}
		if h.nbSize < h.sp.Nt {
			// Local optimum found; resume the global phase.
			h.globals++
			if h.globals >= h.sp.GlobalBudget {
				h.phase = phaseDone
				return
			}
			h.phase = phaseGlobal
			h.startWave(h.sp.M, h.space)
			return
		}
		h.startWave(h.sp.N, lhs.Neighborhood(h.space, h.best, h.nbSize))
	}
}

func (h *hillClimb) waveBest() ([]float64, float64) {
	if len(h.wave) == 0 {
		return h.best, h.bestCost
	}
	best := h.wave[0]
	for _, e := range h.wave[1:] {
		if e.cost < best.cost {
			best = e
		}
	}
	return best.point, best.cost
}

// Best returns the best point found so far (nil before any wave
// completes) and its cost.
func (h *hillClimb) Best() ([]float64, float64, bool) {
	return h.best, h.bestCost, h.haveBest
}

// Waves counts completed waves.
func (h *hillClimb) Waves() int { return h.waves }

// State names the current Algorithm 1 phase.
func (h *hillClimb) State() string { return h.phase.String() }

// Trajectory returns the best-cost-so-far series.
func (h *hillClimb) Trajectory() []float64 { return h.traj.Trajectory() }

// Export snapshots the search outcome for the warm-start Store.
func (h *hillClimb) Export() ScopeState {
	s := ScopeState{
		Backend:  "hill",
		Names:    paramNames(h.params),
		BestCost: h.bestCost,
		HaveBest: h.haveBest,
		Evals:    h.evals,
		Waves:    h.waves,
	}
	if h.haveBest {
		s.Best = append([]float64(nil), h.best...)
	}
	return s
}

// Tighten narrows a dimension's bounds (gray-box rule §6.2). The
// current best point is clamped into the new bounds.
func (h *hillClimb) Tighten(name string, lo, hi float64) {
	for d := range h.space {
		if h.space[d].Name != name {
			continue
		}
		fullLo, fullHi := h.full[d].Min, h.full[d].Max
		lo = metrics.Clamp(lo, fullLo, fullHi)
		hi = metrics.Clamp(hi, fullLo, fullHi)
		if hi < lo {
			hi = lo
		}
		h.space[d].Min, h.space[d].Max = lo, hi
		if h.haveBest {
			h.best[d] = metrics.Clamp(h.best[d], lo, hi)
		}
		return
	}
	panic(fmt.Sprintf("tuner: Tighten of unknown dimension %q", name))
}

// Bias sets a sampling weight profile for one dimension (weighted
// LHS): nil restores uniform sampling.
func (h *hillClimb) Bias(name string, w lhs.Weights) {
	for d := range h.space {
		if h.space[d].Name == name {
			h.weights[d] = w
			return
		}
	}
	panic(fmt.Sprintf("tuner: Bias of unknown dimension %q", name))
}

// Bounds returns the current bounds of a dimension.
func (h *hillClimb) Bounds(name string) (lo, hi float64) {
	for _, d := range h.space {
		if d.Name == name {
			return d.Min, d.Max
		}
	}
	panic(fmt.Sprintf("tuner: Bounds of unknown dimension %q", name))
}

var (
	_ Optimizer = (*hillClimb)(nil)
	_ Shaper    = (*hillClimb)(nil)
)
