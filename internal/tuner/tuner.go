// Package tuner holds the pluggable optimizer backends behind
// MRONLINE's aggressive (expedited test run) strategy. The search that
// was historically hard-wired into core.Tuner — the paper's gray-box
// smart hill-climbing (Algorithm 1) — is one backend among several
// here; SPSA (simultaneous-perturbation stochastic approximation) and
// a TPE-style Bayesian optimizer tune the same mrconf parameter space
// through the same wave-oriented interface, which is what lets the
// tournament experiment ask whether the paper's convergence claim is a
// property of the algorithm or of online tuning itself.
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
	"sort"
	"strings"

	"repro/internal/lhs"
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
}

// Shaper is the optional capability behind the §6.2 gray-box rules:
// observation-driven bound tightening and sampling bias. All built-in
// backends implement it (Bias is a no-op where the backend has no
// stratified sampler to bias).
type Shaper interface {
	// Tighten narrows a dimension's bounds; the current best point is
	// clamped into the new bounds.
	Tighten(name string, lo, hi float64)
	// Bias sets a sampling weight profile for one dimension; nil
	// restores uniform sampling.
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

// paramNames renders the dimension names of a search space.
func paramNames(params []mrconf.Param) []string {
	out := make([]string, len(params))
	for i, p := range params {
		out[i] = p.Name
	}
	return out
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

// Factory builds one backend instance.
type Factory func(Options) Optimizer

var backends = map[string]Factory{}

// Register installs a backend under a name. Called from init
// functions; duplicate names panic.
func Register(name string, f Factory) {
	if _, dup := backends[name]; dup {
		panic(fmt.Sprintf("tuner: duplicate backend %q", name))
	}
	backends[name] = f
}

// Backends lists the registered backend names, sorted.
func Backends() []string {
	out := make([]string, 0, len(backends))
	for name := range backends {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// New builds a named backend. Unknown names return an error listing
// what is registered, so CLI flags can fail fast and helpfully.
func New(name string, o Options) (Optimizer, error) {
	f, ok := backends[name]
	if !ok {
		return nil, fmt.Errorf("tuner: unknown backend %q (registered: %s)",
			name, strings.Join(Backends(), ", "))
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
	return f(o), nil
}

// MustNew is New for callers that already validated the name.
func MustNew(name string, o Options) Optimizer {
	opt, err := New(name, o)
	if err != nil {
		panic(err)
	}
	return opt
}

// ApplyPoint returns cfg with each searched parameter set to the
// point's coordinate, quantized to the parameter's grid, in dimension
// order.
func ApplyPoint(cfg mrconf.Config, params []mrconf.Param, point []float64) mrconf.Config {
	for i, p := range params {
		cfg = cfg.With(p.Name, p.Quantize(point[i]))
	}
	return cfg
}

// evaluation pairs a sampled point with its measured cost.
type evaluation struct {
	point []float64
	cost  float64
}

// trajectory tracks the best-cost-so-far series across evaluations.
type trajectory struct {
	series []float64
}

func (t *trajectory) observe(cost float64) {
	best := cost
	if n := len(t.series); n > 0 && t.series[n-1] < best {
		best = t.series[n-1]
	}
	// The series is a per-run diagnostic bounded by the backend's
	// evaluation budget (a few hundred entries); it is read wholesale
	// by Trajectory and never trimmed, by design.
	t.series = append(t.series, best) //mrlint:ignore retained-append bounded by the search's evaluation budget; the convergence curve is the product
}

func (t *trajectory) Trajectory() []float64 { return t.series }
