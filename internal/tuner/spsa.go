package tuner

import (
	"math"

	"repro/internal/metrics"
	"repro/internal/mrconf"
)

// SPSA gain-sequence constants (Spall's practically-universal choices:
// a_k = a/(A+k+1)^alpha, c_k = c/(k+1)^gamma). The step sizes live in
// the normalized [0,1]^d space, so one set of constants serves every
// mrconf subspace regardless of raw parameter ranges.
const (
	spsaA     = 0.25
	spsaC     = 0.12
	spsaBigA  = 3
	spsaAlpha = 0.602
	spsaGamma = 0.101
)

// spsa is simultaneous-perturbation stochastic approximation adapted
// to MRONLINE's wave discipline (cf. "Performance Tuning of Hadoop
// MapReduce: A Noisy Gradient Approach", which tunes the same Hadoop
// parameter space this way). Each wave measures the current iterate θ
// plus B simultaneous ±c_k Rademacher perturbation pairs — batching
// the pairs into one task wave is what maps a serial gradient method
// onto the cluster's parallelism — then averages the B two-point
// gradient estimates and takes one projected descent step.
//
// The iterate lives in the normalized [0,1]^d space; proposals cross
// the Optimizer interface mapped back to raw parameter coordinates
// and projected into the current (rule-tightened) mrconf bounds.
type spsa struct {
	search

	theta []float64 // normalized current iterate
	k     int       // SPSA iteration (== completed waves)
	pairs int       // B perturbation pairs per wave

	// budgetWaves bounds the search; derived from SearchParams so the
	// test-run footprint is comparable to the hill backend's.
	budgetWaves int

	// One wave of proposals. kind: 0 = θ probe, 1 = +c_kΔ, 2 = −c_kΔ;
	// pair indexes the Δ vector. Reports are matched to probes by
	// slice identity (the driver returns the exact slice Next gave it).
	probes []spsaProbe
	deltas [][]float64 // per-pair Rademacher vectors, normalized
}

type spsaProbe struct {
	point []float64 // raw-space proposal handed to the driver
	kind  int
	pair  int
	cost  float64
	seen  bool
}

func newSPSA(o Options) *spsa {
	sp := o.Search
	s := &spsa{
		search: newSearch("spsa", o),
		theta:  make([]float64, len(o.Params)),
		pairs:  (sp.N + 1) / 2,
		// Cold budget ≈ the hill backend's typical eval count: with
		// the paper's knobs (N=16 → B=8, g=5) this is 15 waves of
		// 17 probes ≈ 255 evaluations.
		budgetWaves: 3 * sp.GlobalBudget,
	}
	if w := o.warmFor(); w != nil {
		// Warm start: descend from the class's best-known point with
		// the schedule advanced past the large early steps and half
		// the wave budget — refinement, not re-exploration.
		s.warmBest(w)
		for i := range s.theta {
			s.theta[i] = s.normalize(i, s.best[i])
		}
		s.k = s.budgetWaves                     // past the large early steps
		s.budgetWaves = (s.budgetWaves + 1) / 2 // half the cold wave budget
	} else {
		// θ0 is the default configuration, the same starting point the
		// hill backend seeds its first wave with.
		for i, p := range o.Params {
			s.theta[i] = s.normalize(i, p.Default)
		}
	}
	s.startWave()
	return s
}

func (s *spsa) ck() float64 { return spsaC / math.Pow(float64(s.k+1), spsaGamma) }
func (s *spsa) ak() float64 { return spsaA / math.Pow(float64(s.k+spsaBigA+1), spsaAlpha) }

// startWave generates the θ probe plus B perturbation pairs. All RNG
// draws for the wave happen here, in a fixed order, so the proposal
// trace is a pure function of the seed.
func (s *spsa) startWave() {
	d := len(s.params)
	ck := s.ck()
	s.probes = s.probes[:0]
	s.deltas = s.deltas[:0]

	add := func(x []float64, kind, pair int) {
		s.probes = append(s.probes, spsaProbe{point: s.raw(x), kind: kind, pair: pair})
	}
	add(s.theta, 0, -1)
	for b := 0; b < s.pairs; b++ {
		delta := make([]float64, d)
		for i := range delta {
			if s.rng.Intn(2) == 0 {
				delta[i] = -1
			} else {
				delta[i] = 1
			}
		}
		s.deltas = append(s.deltas, delta)
		plus := make([]float64, d)
		minus := make([]float64, d)
		for i := range delta {
			plus[i] = metrics.Clamp(s.theta[i]+float64(ck*delta[i]), 0, 1)
			minus[i] = metrics.Clamp(s.theta[i]-float64(ck*delta[i]), 0, 1)
		}
		add(plus, 1, b)
		add(minus, 2, b)
	}
	points := make([][]float64, len(s.probes))
	for i := range s.probes {
		points[i] = s.probes[i].point
	}
	s.beginWave(points)
}

func (s *spsa) State() string { return "gradient" }

func (s *spsa) Report(point []float64, cost float64) {
	if s.done {
		return
	}
	if pr := s.probeFor(point); pr != nil && !pr.seen {
		pr.cost = cost
		pr.seen = true
	}
	s.offer(point, cost)
	if s.observe(cost) {
		s.endWave()
	}
}

// probeFor matches a reported point back to its probe by slice
// identity: the driver contract is that Report hands back the exact
// slice Next returned.
func (s *spsa) probeFor(point []float64) *spsaProbe {
	if len(point) == 0 {
		return nil
	}
	for i := range s.probes {
		if len(s.probes[i].point) > 0 && &s.probes[i].point[0] == &point[0] {
			return &s.probes[i]
		}
	}
	return nil
}

// endWave averages the completed pairs' two-point gradient estimates
// and takes one projected descent step. For Rademacher ±1 components,
// 1/Δ_i = Δ_i, so ĝ_i = (y⁺−y⁻)/(2 c_k) · Δ_i.
func (s *spsa) endWave() {
	ck := s.ck()
	ak := s.ak()
	d := len(s.theta)
	grad := make([]float64, d)
	complete := 0
	for b := 0; b < s.pairs; b++ {
		var plus, minus *spsaProbe
		for i := range s.probes {
			pr := &s.probes[i]
			if pr.pair != b || !pr.seen {
				continue
			}
			switch pr.kind {
			case 1:
				plus = pr
			case 2:
				minus = pr
			}
		}
		if plus == nil || minus == nil {
			continue // an abandoned probe voids the pair
		}
		complete++
		scale := (plus.cost - minus.cost) / (2 * ck)
		for i := range grad {
			grad[i] += float64(scale * s.deltas[b][i])
		}
	}
	if complete > 0 {
		inv := 1 / float64(complete)
		for i := range grad {
			s.theta[i] = metrics.Clamp(s.theta[i]-float64(ak*grad[i]*inv), 0, 1)
		}
	}
	// Keep θ inside the normalized image of the rule-tightened bounds,
	// so descent cannot wander where the §6.2 rules forbid sampling.
	for i := range s.theta {
		s.clampTheta(i)
	}
	s.k++
	if s.waves >= s.budgetWaves {
		s.done = true
		return
	}
	s.startWave()
}

// Tighten narrows a dimension's bounds (§6.2 gray-box rule); the
// iterate and best point are clamped into the new bounds.
func (s *spsa) Tighten(id mrconf.ParamID, lo, hi float64) {
	s.search.Tighten(id, lo, hi)
	s.clampTheta(s.dim(id))
}

// clampTheta keeps θ's coordinate d inside the normalized image of the
// dimension's live bounds.
func (s *spsa) clampTheta(d int) {
	s.theta[d] = metrics.Clamp(s.theta[d], s.normalize(d, s.space[d].Min), s.normalize(d, s.space[d].Max))
}
