package tuner

// This file freezes the pre-refactor core.Tuner hill-climbing search
// verbatim (modulo `legacy` name prefixes) and pins the refactored
// hill backend bit-exact against it: same RNG seed, same scripted cost
// sequence, same gray-box Tighten/Bias interventions — every proposal
// and the final best point must match to the last bit. This is the
// byte-identity contract that lets the committed figure pipeline
// survive the move into internal/tuner.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/lhs"
	"repro/internal/metrics"
	"repro/internal/mrconf"
)

type legacyPhase int

const (
	legacyGlobal legacyPhase = iota
	legacyLocal
	legacyDone
)

type legacyEval struct {
	point []float64
	cost  float64
}

type legacyHillClimb struct {
	params []mrconf.Param
	space  lhs.Space
	full   lhs.Space
	rng    *rand.Rand
	sp     SearchParams

	weights []lhs.Weights

	phase       legacyPhase
	pending     [][]float64
	waveSize    int
	wave        []legacyEval
	outstanding int

	best     []float64
	bestCost float64
	haveBest bool
	nbSize   float64
	globals  int

	waves int
}

func newLegacyHillClimb(params []mrconf.Param, rng *rand.Rand, sp SearchParams) *legacyHillClimb {
	space := make(lhs.Space, len(params))
	for i, p := range params {
		space[i] = lhs.Dim{Min: p.Min, Max: p.Max}
	}
	h := &legacyHillClimb{
		params:  params,
		space:   space,
		full:    append(lhs.Space(nil), space...),
		rng:     rng,
		sp:      sp,
		weights: make([]lhs.Weights, len(params)),
	}
	h.startWave(sp.M, h.space)
	seed := make([]float64, len(params))
	for i, p := range params {
		seed[i] = p.Default
	}
	h.pending = append([][]float64{seed}, h.pending...)
	h.waveSize++
	return h
}

func (h *legacyHillClimb) startWave(size int, space lhs.Space) {
	if h.sp.PlainRandom {
		h.pending = uniformSample(h.rng, space, size)
	} else {
		h.pending = lhs.WeightedSample(h.rng, space, h.weights, size)
	}
	if h.sp.K > 1 {
		for _, p := range h.pending {
			snapToGrid(p, space, h.sp.K)
		}
	}
	h.waveSize = size
	h.wave = h.wave[:0]
	h.outstanding = 0
}

func (h *legacyHillClimb) Next() []float64 {
	if h.phase == legacyDone || len(h.pending) == 0 {
		return nil
	}
	p := h.pending[0]
	h.pending = h.pending[1:]
	h.outstanding++
	return p
}

func (h *legacyHillClimb) Report(point []float64, cost float64) {
	if h.phase == legacyDone {
		return
	}
	h.wave = append(h.wave, legacyEval{point: point, cost: cost})
	h.outstanding--
	if len(h.wave) >= h.waveSize && h.outstanding <= 0 && len(h.pending) == 0 {
		h.endWave()
	}
}

func (h *legacyHillClimb) endWave() {
	h.waves++
	cand, candCost := h.waveBest()
	switch h.phase {
	case legacyGlobal:
		if !h.haveBest || candCost < h.bestCost {
			h.best, h.bestCost, h.haveBest = cand, candCost, true
			h.nbSize = h.sp.InitialNeighbors
			h.phase = legacyLocal
			h.startWave(h.sp.N, lhs.Neighborhood(h.space, h.best, h.nbSize))
			return
		}
		h.globals++
		if h.globals >= h.sp.GlobalBudget {
			h.phase = legacyDone
			return
		}
		h.startWave(h.sp.M, h.space)
	case legacyLocal:
		if candCost < h.bestCost {
			h.best, h.bestCost = cand, candCost
		} else {
			h.nbSize *= h.sp.ShrinkFactor
		}
		if h.nbSize < h.sp.Nt {
			h.globals++
			if h.globals >= h.sp.GlobalBudget {
				h.phase = legacyDone
				return
			}
			h.phase = legacyGlobal
			h.startWave(h.sp.M, h.space)
			return
		}
		h.startWave(h.sp.N, lhs.Neighborhood(h.space, h.best, h.nbSize))
	}
}

func (h *legacyHillClimb) waveBest() ([]float64, float64) {
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

func (h *legacyHillClimb) Best() ([]float64, float64, bool) {
	return h.best, h.bestCost, h.haveBest
}

func (h *legacyHillClimb) Tighten(id mrconf.ParamID, lo, hi float64) {
	for d := range h.space {
		if h.params[d].ID != id {
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
	panic(fmt.Sprintf("legacy: Tighten of unknown dimension %q", id.Param().Name))
}

func (h *legacyHillClimb) Bias(id mrconf.ParamID, w lhs.Weights) {
	for d := range h.space {
		if h.params[d].ID == id {
			h.weights[d] = w
			return
		}
	}
	panic(fmt.Sprintf("legacy: Bias of unknown dimension %q", id.Param().Name))
}

// scriptedCost is a deterministic, seed-free cost surface with enough
// structure to push the search through global and local phases.
func scriptedCost(params []mrconf.Param) func([]float64) float64 {
	return func(p []float64) float64 {
		c := 0.0
		for i := range p {
			span := params[i].Max - params[i].Min
			x := (p[i] - params[i].Min) / span
			c += (x - 0.37) * (x - 0.37)
			c += 0.05 * math.Sin(9*x)
		}
		return c
	}
}

// TestHillMatchesFrozenLegacySearch drives the refactored hill backend
// and the frozen pre-refactor copy in lock-step — same seed, same
// costs, same mid-search Tighten/Bias interventions — and requires a
// bit-exact proposal trace and best point.
func TestHillMatchesFrozenLegacySearch(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		params := mapDims()
		sp := DefaultSearchParams()
		cost := scriptedCost(params)
		legacy := newLegacyHillClimb(params, rand.New(rand.NewSource(seed)), sp)
		fresh := newHillClimb(Options{Params: params, RNG: rand.New(rand.NewSource(seed)), Search: sp})

		shaped := false
		for step := 0; step < 5000; step++ {
			lp, np := legacy.Next(), fresh.Next()
			if (lp == nil) != (np == nil) {
				t.Fatalf("seed %d step %d: legacy=%v fresh=%v", seed, step, lp, np)
			}
			if lp == nil {
				break
			}
			if len(lp) != len(np) {
				t.Fatalf("seed %d step %d: dim mismatch", seed, step)
			}
			for d := range lp {
				if lp[d] != np[d] { // bit-exact, no tolerance
					t.Fatalf("seed %d step %d dim %d: legacy %v != fresh %v", seed, step, d, lp[d], np[d])
				}
			}
			c := cost(lp)
			legacy.Report(lp, c)
			fresh.Report(np, c)
			// After the second wave boundary, fire the same §6.2 rules at
			// both searches once: the RNG-consuming weighted sampler must
			// stay in lock-step through bias and bound changes.
			if !shaped && legacy.waves >= 2 {
				shaped = true
				legacy.Tighten(mrconf.IOSortMB, 120, 900)
				fresh.Tighten(mrconf.IOSortMB, 120, 900)
				legacy.Bias(mrconf.MapMemoryMB, lhs.Weights{1, 1, 2, 3})
				fresh.Bias(mrconf.MapMemoryMB, lhs.Weights{1, 1, 2, 3})
			}
		}
		lb, lc, lok := legacy.Best()
		nb, nc, nok := fresh.Best()
		if lok != nok || lc != nc {
			t.Fatalf("seed %d: best cost legacy (%v,%v) != fresh (%v,%v)", seed, lc, lok, nc, nok)
		}
		for d := range lb {
			if lb[d] != nb[d] {
				t.Fatalf("seed %d: best point dim %d legacy %v != fresh %v", seed, d, lb[d], nb[d])
			}
		}
		if legacy.waves != fresh.Waves() {
			t.Fatalf("seed %d: wave counts legacy %d != fresh %d", seed, legacy.waves, fresh.Waves())
		}
	}
}
