// Package tuner holds the optimizer backends behind MRONLINE's
// aggressive (expedited test run) strategy. The search that was
// historically hard-wired into core.Tuner — the paper's gray-box smart
// hill-climbing (Algorithm 1) — is one backend among three here; SPSA
// (simultaneous-perturbation stochastic approximation) and a TPE-style
// Bayesian optimizer tune the same mrconf parameter space through the
// same wave-oriented interface, which is what lets the tournament
// experiment ask whether the paper's convergence claim is a property
// of the algorithm or of online tuning itself. The backends sit in a
// static table (Backends, New), and each embeds one shared search core:
// the bounds, the wave gate, the best point and the effort counters.
//
// Every backend is deterministic given its Options.RNG: same seed,
// same proposal trace, bit for bit. Callers derive that RNG from a
// sim.Source sub-stream (core.Tuner uses "tuner/<backend>"), except
// the hill backend under core.Tuner, which keeps the pre-refactor
// shared stream so the committed figure pipeline stays byte-identical.
package tuner

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/lhs"
	"repro/internal/metrics"
	"repro/internal/mrconf"
)

// SearchParams are Algorithm 1's knobs with the paper's defaults (§5):
// m sampled configurations per global wave, n per local wave, LHS
// granularity k, neighborhood-size threshold Nt, shrink factor f, and
// the global-iteration budget g. The SPSA and TPE backends reuse M/N
// as their wave sizes and derive their evaluation budgets from the
// same knobs, so a single SearchParams configures any backend with a
// comparable test-run footprint.
type SearchParams struct {
	M                int
	N                int
	K                int
	Nt               float64
	ShrinkFactor     float64
	GlobalBudget     int
	InitialNeighbors float64
	// PlainRandom replaces Latin hypercube sampling with independent
	// uniform draws — the ablation knob for the LHS design choice
	// (hill backend only).
	PlainRandom bool
}

// DefaultSearchParams returns the values used in the paper's tests.
func DefaultSearchParams() SearchParams {
	return SearchParams{M: 24, N: 16, K: 24, Nt: 0.1, ShrinkFactor: 0.75, GlobalBudget: 5, InitialNeighbors: 0.2}
}

// Optimizer is the propose-a-wave / observe-costs / best-so-far
// contract every search backend implements. Points live in the raw
// bounded parameter space defined by Options.Params (coordinate i in
// [Params[i].Min, Params[i].Max]); backends are free to work in a
// normalized [0,1]^d space internally, but what crosses this interface
// is always raw coordinates, because that is what the hill-climber
// historically handed out and the byte-identity contract pins it.
//
// The driver hands each proposed point to one task (Next), feeds the
// measured Eq. 1 cost back (Report, with the same slice it got from
// Next). Backends gate proposals in waves: Next returns nil while a wave is fully
// assigned but not yet measured, and the launch gate upstream holds
// further tasks until the wave completes.
type Optimizer interface {
	// Next pops the next proposal, or nil when the current wave is
	// fully assigned (or the search is done).
	Next() []float64
	// HasPending reports whether an unassigned proposal exists.
	HasPending() bool
	// Done reports whether the search has converged or exhausted its
	// budget.
	Done() bool
	// Report feeds back the measured cost of a point obtained from
	// Next. Completing a wave advances the backend by one step.
	Report(point []float64, cost float64)
	// Best returns the best point found so far and its cost; ok is
	// false before any evaluation completed.
	Best() ([]float64, float64, bool)
	// Waves counts completed waves, for diagnostics and warm-start
	// accounting.
	Waves() int
	// State describes the search phase for human-facing output
	// (e.g. "global", "local", "gradient", "model").
	State() string
	// Export snapshots the search outcome for the cross-job Store.
	Export() ScopeState
	// Trajectory returns the best-cost-so-far series, one entry per
	// completed evaluation — the convergence curve the tournament
	// experiment reads.
	Trajectory() []float64

	// Tighten, Bias and Bounds carry the §6.2 gray-box rules, which
	// core.Tuner fires at wave boundaries.
	//
	// Tighten narrows a dimension's bounds; the current best point is
	// clamped into the new bounds.
	Tighten(name string, lo, hi float64)
	// Bias sets a sampling weight profile for one dimension; nil
	// restores uniform sampling. Backends without a stratified sampler
	// ignore it.
	Bias(name string, w lhs.Weights)
	// Bounds returns the current bounds of a dimension.
	Bounds(name string) (lo, hi float64)
}

// ScopeState is the persistable outcome of one scope's search (map or
// reduce side): what the Store keeps per (app, input-scale) class and
// what a warm-started backend resumes from.
type ScopeState struct {
	// Backend that produced the state, informational.
	Backend string `json:"backend,omitempty"`
	// Names are the searched parameter names, in point-coordinate
	// order. Warm starts are refused when the names don't match the
	// new search's dimensions (e.g. gray-box state offered to a
	// black-box search).
	Names []string `json:"names"`
	// Best point and its Eq. 1 cost; meaningful when HaveBest.
	Best     []float64 `json:"best,omitempty"`
	BestCost float64   `json:"best_cost,omitempty"`
	HaveBest bool      `json:"have_best,omitempty"`
	// Evals and Waves measure the search effort spent producing the
	// state.
	Evals int `json:"evals"`
	Waves int `json:"waves"`
}

// Matches reports whether the stored state describes a search over
// exactly the given parameters (same names, same order).
func (s ScopeState) Matches(params []mrconf.Param) bool {
	if !s.HaveBest || len(s.Names) != len(params) || len(s.Best) != len(params) {
		return false
	}
	for i, p := range params {
		if s.Names[i] != p.Name {
			return false
		}
	}
	return true
}

// Options configure a backend instance.
type Options struct {
	// Params define the searched dimensions and their bounds.
	Params []mrconf.Param
	// RNG drives every random draw the backend makes. Callers seed it
	// from a sim.Source sub-stream; sharing one RNG between two
	// backends couples their draw sequences (the hill backend under
	// core.Tuner does exactly that, by byte-identity contract).
	RNG *rand.Rand
	// Search supplies the Algorithm 1 knobs (zero M means defaults).
	Search SearchParams
	// Warm, when non-nil and matching Params, resumes the search from
	// a previous job's outcome instead of exploring from scratch: the
	// backend starts in its refinement phase around Warm.Best with a
	// reduced budget, so a warm-started job issues strictly fewer test
	// waves than a cold one.
	Warm *ScopeState
}

// warmFor validates o.Warm against o.Params, returning nil when the
// stored state cannot seed this search.
func (o Options) warmFor() *ScopeState {
	if o.Warm == nil || !o.Warm.Matches(o.Params) {
		return nil
	}
	return o.Warm
}

// backends is the table of built-in backends, in name order.
var backends = []struct {
	name  string
	build func(Options) Optimizer
}{
	{"hill", func(o Options) Optimizer { return newHillClimb(o) }},
	{"spsa", func(o Options) Optimizer { return newSPSA(o) }},
	{"tpe", func(o Options) Optimizer { return newTPE(o) }},
}

// Backends lists the backend names, sorted.
func Backends() []string {
	out := make([]string, len(backends))
	for i, b := range backends {
		out[i] = b.name
	}
	return out
}

// New builds a named backend. Unknown names return an error listing
// the backends, so CLI flags can fail fast and helpfully.
func New(name string, o Options) (Optimizer, error) {
	var build func(Options) Optimizer
	for _, b := range backends {
		if b.name == name {
			build = b.build
		}
	}
	if build == nil {
		return nil, fmt.Errorf("tuner: unknown backend %q (backends: %s)", name, strings.Join(Backends(), ", "))
	}
	if o.Search.M == 0 {
		o.Search = DefaultSearchParams()
	}
	if o.RNG == nil {
		return nil, fmt.Errorf("tuner: backend %q needs an RNG (seed it from a sim.Source stream)", name)
	}
	if len(o.Params) == 0 {
		return nil, fmt.Errorf("tuner: backend %q needs a non-empty parameter space", name)
	}
	return build(o), nil
}

// ApplyPoint returns cfg with each searched parameter set to the
// point's coordinate, quantized to the parameter's grid. It makes at
// most one copy of the configuration, and none when no value changes.
func ApplyPoint(cfg mrconf.Config, params []mrconf.Param, point []float64) mrconf.Config {
	var set [mrconf.NumParams]bool
	var vals [mrconf.NumParams]float64
	for i, p := range params {
		id, _ := mrconf.ID(p.Name)
		set[id], vals[id] = true, p.Quantize(point[i])
	}
	return cfg.WithIDs(&set, &vals)
}

// evaluation pairs a sampled point with its measured cost.
type evaluation struct {
	point []float64
	cost  float64
}

// search is the plumbing every backend shares: the searched space with
// its live (rule-tightened) and full bounds, the RNG, the wave gate,
// the best point so far and the effort counters. A backend embeds it
// and adds its own algorithm: which points open each wave, and what a
// completed wave does.
type search struct {
	backend string
	params  []mrconf.Param
	space   lhs.Space // live (rule-tightened) bounds
	full    lhs.Space // original bounds
	rng     *rand.Rand
	sp      SearchParams

	// The wave gate: the points not yet handed out, and how many of the
	// wave's waveSize points are out (outstanding) or measured
	// (reported).
	pending     [][]float64
	waveSize    int
	reported    int
	outstanding int

	best     []float64 // raw space
	bestCost float64
	haveBest bool
	done     bool

	waves int
	evals int
	traj  []float64 // best cost so far, one entry per evaluation
}

func newSearch(backend string, o Options) search {
	space := make(lhs.Space, len(o.Params))
	for i, p := range o.Params {
		space[i] = lhs.Dim{Name: p.Name, Min: p.Min, Max: p.Max}
	}
	return search{
		backend: backend,
		params:  o.Params,
		space:   space,
		full:    append(lhs.Space(nil), space...),
		rng:     o.RNG,
		sp:      o.Search,
	}
}

// beginWave opens a wave of points. An empty wave could never complete
// and would hold the launch gate shut for good, so it ends the search.
func (s *search) beginWave(points [][]float64) {
	s.pending, s.waveSize = points, len(points)
	s.reported, s.outstanding = 0, 0
	s.done = len(points) == 0
}

// observe counts the report of a handed-out point and extends the
// trajectory with its cost. It reports whether the wave is complete,
// and counts the wave when it is.
func (s *search) observe(cost float64) bool {
	s.evals++
	best := cost
	if n := len(s.traj); n > 0 && s.traj[n-1] < best {
		best = s.traj[n-1]
	}
	// The trajectory is bounded by the evaluation budget (a few hundred
	// entries); it is read wholesale by Trajectory and never trimmed.
	s.traj = append(s.traj, best) //mrlint:ignore retained-append bounded by the search's evaluation budget; the convergence curve is the product
	s.reported++
	s.outstanding--
	if s.reported < s.waveSize || s.outstanding > 0 || len(s.pending) > 0 {
		return false
	}
	s.waves++
	return true
}

// offer makes point the best so far when its cost beats the incumbent.
func (s *search) offer(point []float64, cost float64) {
	if !s.haveBest || cost < s.bestCost {
		s.best = append(s.best[:0], point...)
		s.bestCost, s.haveBest = cost, true
	}
}

// warmBest adopts a warm state's best point, clamped into the bounds,
// as the incumbent.
func (s *search) warmBest(w *ScopeState) {
	s.best = append([]float64(nil), w.Best...)
	for d, dim := range s.space {
		s.best[d] = metrics.Clamp(s.best[d], dim.Min, dim.Max)
	}
	s.bestCost, s.haveBest = w.BestCost, true
}

// normalize maps a raw coordinate into [0,1] over the full bounds.
func (s *search) normalize(d int, v float64) float64 {
	r := s.full[d].Range()
	if r <= 0 {
		return 0
	}
	return metrics.Clamp((v-s.full[d].Min)/r, 0, 1)
}

// raw maps a normalized point back to raw coordinates, projected into
// the live bounds.
func (s *search) raw(x []float64) []float64 {
	p := make([]float64, len(x))
	for d := range x {
		v := s.full[d].Min + x[d]*s.full[d].Range()
		p[d] = metrics.Clamp(v, s.space[d].Min, s.space[d].Max)
	}
	return p
}

// dim returns the index of a named dimension.
func (s *search) dim(name string) int {
	for d := range s.space {
		if s.space[d].Name == name {
			return d
		}
	}
	panic(fmt.Sprintf("tuner: unknown dimension %q", name))
}

func (s *search) Done() bool            { return s.done }
func (s *search) HasPending() bool      { return len(s.pending) > 0 }
func (s *search) Waves() int            { return s.waves }
func (s *search) Trajectory() []float64 { return s.traj }

func (s *search) Best() ([]float64, float64, bool) {
	return s.best, s.bestCost, s.haveBest
}

func (s *search) Next() []float64 {
	if s.done || len(s.pending) == 0 {
		return nil
	}
	p := s.pending[0]
	s.pending = s.pending[1:]
	s.outstanding++
	return p
}

func (s *search) Export() ScopeState {
	st := ScopeState{
		Backend:  s.backend,
		Names:    make([]string, len(s.params)),
		BestCost: s.bestCost,
		HaveBest: s.haveBest,
		Evals:    s.evals,
		Waves:    s.waves,
	}
	for i, p := range s.params {
		st.Names[i] = p.Name
	}
	if s.haveBest {
		st.Best = append([]float64(nil), s.best...)
	}
	return st
}

// Tighten narrows a dimension's bounds within its full range; the best
// point is clamped into the new bounds.
func (s *search) Tighten(name string, lo, hi float64) {
	d := s.dim(name)
	full := s.full[d]
	lo = metrics.Clamp(lo, full.Min, full.Max)
	hi = metrics.Clamp(hi, full.Min, full.Max)
	if hi < lo {
		hi = lo
	}
	s.space[d].Min, s.space[d].Max = lo, hi
	if s.haveBest {
		s.best[d] = metrics.Clamp(s.best[d], lo, hi)
	}
}

func (s *search) Bounds(name string) (lo, hi float64) {
	d := s.dim(name)
	return s.space[d].Min, s.space[d].Max
}

// Bias only validates the dimension: spsa has no stratified sampler to
// bias, and tpe's Parzen model already concentrates sampling where the
// observed costs are low. hill overrides it.
func (s *search) Bias(name string, _ lhs.Weights) { s.dim(name) }
