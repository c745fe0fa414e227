package tuner

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/mrconf"
)

// proposalTrace drives a backend over a deterministic cost surface and
// renders every proposal (and the final best) into one string — the
// byte-level fingerprint the determinism tests compare.
func proposalTrace(backend string, seed int64, warm *ScopeState) string {
	params := mapDims()
	opt := MustNew(backend, Options{
		Params: params,
		RNG:    rand.New(rand.NewSource(seed)),
		Warm:   warm,
	})
	cost := scriptedCost(params)
	var b strings.Builder
	for i := 0; i < 5000 && !opt.Done(); i++ {
		p := opt.Next()
		if p == nil {
			break
		}
		fmt.Fprintf(&b, "%x\n", p) // %x on floats: exact bits, no rounding
		opt.Report(p, cost(p))
	}
	best, bestCost, ok := opt.Best()
	fmt.Fprintf(&b, "best=%x cost=%x ok=%v waves=%d\n", best, bestCost, ok, opt.Waves())
	return b.String()
}

// TestBackendsSameSeedBitReproducible is the tentpole determinism
// contract: for every registered backend, two runs with the same seed
// produce byte-identical proposal traces, and a different seed
// produces a different one.
func TestBackendsSameSeedBitReproducible(t *testing.T) {
	for _, backend := range Backends() {
		a := proposalTrace(backend, 11, nil)
		b := proposalTrace(backend, 11, nil)
		if a != b {
			t.Fatalf("%s: same-seed proposal traces differ", backend)
		}
		c := proposalTrace(backend, 12, nil)
		if a == c {
			t.Fatalf("%s: different seeds produced identical traces", backend)
		}
	}
}

// TestBackendsConvergeReasonably checks each backend finds a point
// much better than the default on the scripted surface and terminates
// within its budget.
func TestBackendsConvergeReasonably(t *testing.T) {
	params := mapDims()
	cost := scriptedCost(params)
	defaults := make([]float64, len(params))
	for i, p := range params {
		defaults[i] = p.Default
	}
	defCost := cost(defaults)
	for _, backend := range Backends() {
		opt := MustNew(backend, Options{Params: params, RNG: rand.New(rand.NewSource(5))})
		evals := drive(opt, cost, 20000)
		if !opt.Done() {
			t.Fatalf("%s: not done after %d evals", backend, evals)
		}
		_, bestCost, ok := opt.Best()
		if !ok {
			t.Fatalf("%s: no best point", backend)
		}
		if bestCost >= defCost {
			t.Fatalf("%s: best cost %v no better than default %v after %d evals",
				backend, bestCost, defCost, evals)
		}
		if got := len(opt.Trajectory()); got != evals {
			t.Fatalf("%s: trajectory length %d != %d evals", backend, got, evals)
		}
	}
}

// TestTrajectoryIsRunningMin checks the convergence curve invariant.
func TestTrajectoryIsRunningMin(t *testing.T) {
	params := mapDims()
	opt := MustNew("spsa", Options{Params: params, RNG: rand.New(rand.NewSource(2))})
	drive(opt, scriptedCost(params), 500)
	traj := opt.Trajectory()
	for i := 1; i < len(traj); i++ {
		if traj[i] > traj[i-1] {
			t.Fatalf("trajectory rose at %d: %v -> %v", i-1, traj[i-1], traj[i])
		}
	}
}

// TestWarmStartFewerWaves: for every backend, a warm start from a
// finished search's exported state issues strictly fewer waves (and
// evaluations) than the cold search did — the Store's whole point.
func TestWarmStartFewerWaves(t *testing.T) {
	params := mapDims()
	cost := scriptedCost(params)
	for _, backend := range Backends() {
		cold := MustNew(backend, Options{Params: params, RNG: rand.New(rand.NewSource(21))})
		coldEvals := drive(cold, cost, 20000)
		st := cold.Export()
		if !st.HaveBest || st.Backend != backend {
			t.Fatalf("%s: export incomplete: %+v", backend, st)
		}

		warm := MustNew(backend, Options{Params: params, RNG: rand.New(rand.NewSource(22)), Warm: &st})
		warmEvals := drive(warm, cost, 20000)
		if !warm.Done() {
			t.Fatalf("%s: warm search did not terminate", backend)
		}
		if warm.Waves() >= cold.Waves() {
			t.Fatalf("%s: warm waves %d not fewer than cold %d", backend, warm.Waves(), cold.Waves())
		}
		if warmEvals >= coldEvals {
			t.Fatalf("%s: warm evals %d not fewer than cold %d", backend, warmEvals, coldEvals)
		}
		// The warm search re-anchors on the stored best: it must never
		// end up worse than what it was seeded with.
		_, warmCost, ok := warm.Best()
		if !ok || warmCost > st.BestCost+1e-12 {
			t.Fatalf("%s: warm best %v regressed below seed %v", backend, warmCost, st.BestCost)
		}
	}
}

// TestWarmStateScopeMismatchIgnored: state recorded over different
// dimensions (e.g. black-box vs gray-box spaces) must not seed a
// search; the backend silently falls back to a cold start.
func TestWarmStateScopeMismatchIgnored(t *testing.T) {
	params := mapDims()
	st := ScopeState{
		Backend: "hill", Names: []string{"something", "else"},
		Best: []float64{1, 2}, BestCost: 0.1, HaveBest: true,
	}
	warm := MustNew("hill", Options{Params: params, RNG: rand.New(rand.NewSource(3)), Warm: &st})
	cold := MustNew("hill", Options{Params: params, RNG: rand.New(rand.NewSource(3))})
	for i := 0; i < 10; i++ {
		wp, cp := warm.Next(), cold.Next()
		for d := range wp {
			if wp[d] != cp[d] {
				t.Fatalf("mismatched warm state changed the search (step %d)", i)
			}
		}
		warm.Report(wp, 1)
		cold.Report(cp, 1)
	}
}

// TestWarmStateCrossBackend: a state exported by one backend seeds
// another (the Store is keyed by job class, not by backend), as long
// as the dimension names line up.
func TestWarmStateCrossBackend(t *testing.T) {
	params := mapDims()
	cost := scriptedCost(params)
	cold := MustNew("hill", Options{Params: params, RNG: rand.New(rand.NewSource(31))})
	drive(cold, cost, 20000)
	st := cold.Export()
	for _, backend := range []string{"spsa", "tpe"} {
		warm := MustNew(backend, Options{Params: params, RNG: rand.New(rand.NewSource(32)), Warm: &st})
		drive(warm, cost, 20000)
		_, warmCost, ok := warm.Best()
		if !ok || warmCost > st.BestCost+1e-12 {
			t.Fatalf("%s warm-started from hill state regressed: %v > %v", backend, warmCost, st.BestCost)
		}
	}
}

func TestUnknownBackendError(t *testing.T) {
	_, err := New("bogus", Options{Params: mapDims(), RNG: rand.New(rand.NewSource(1))})
	if err == nil {
		t.Fatal("unknown backend did not error")
	}
	for _, want := range Backends() {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not list registered backend %q", err, want)
		}
	}
}

func TestNewValidatesOptions(t *testing.T) {
	if _, err := New("hill", Options{Params: mapDims()}); err == nil {
		t.Fatal("nil RNG accepted")
	}
	if _, err := New("hill", Options{RNG: rand.New(rand.NewSource(1))}); err == nil {
		t.Fatal("empty parameter space accepted")
	}
}

func TestRegisteredBackends(t *testing.T) {
	got := strings.Join(Backends(), ",")
	if got != "hill,spsa,tpe" {
		t.Fatalf("registered backends = %q, want hill,spsa,tpe", got)
	}
}

// TestBackendsRespectTighten: proposals after a Tighten stay inside
// the narrowed bounds for every backend. For hill the check covers
// global-phase waves only: the legacy search (pinned bit-exact by
// TestHillMatchesFrozenLegacySearch) may recenter a local wave on an
// old-bounds point measured in the wave that was in flight when the
// rule fired. SPSA and TPE clamp every proposal into the live space.
func TestBackendsRespectTighten(t *testing.T) {
	params := mapDims()
	var ioSortDim int
	for i, p := range params {
		if p.ID == mrconf.IOSortMB {
			ioSortDim = i
		}
	}
	for _, backend := range Backends() {
		opt := MustNew(backend, Options{Params: params, RNG: rand.New(rand.NewSource(9))})
		cost := scriptedCost(params)
		// Let the first wave finish, then clamp io.sort.mb hard.
		for i := 0; i < 30; i++ {
			p := opt.Next()
			if p == nil {
				break
			}
			opt.Report(p, cost(p))
		}
		opt.Tighten(mrconf.IOSortMB, 200, 400)
		// The wave in flight was sampled under the old bounds (rules fire
		// at wave boundaries); only waves started after the Tighten must
		// respect it.
		tightenedAt := opt.Waves()
		for i := 0; i < 4000 && !opt.Done(); i++ {
			p := opt.Next()
			if p == nil {
				break
			}
			strict := backend != "hill" || opt.State() == "global"
			if strict && opt.Waves() > tightenedAt && (p[ioSortDim] < 200-1e-9 || p[ioSortDim] > 400+1e-9) {
				t.Fatalf("%s proposed io.sort.mb %v outside tightened [200,400]", backend, p[ioSortDim])
			}
			opt.Report(p, cost(p))
		}
	}
}

// TestWarmBestClampedIntoBounds: a warm state whose best point lies
// outside the parameter bounds (only a hand-edited knowledge-base file
// has one) is clamped into them by every backend before the search
// uses it.
func TestWarmBestClampedIntoBounds(t *testing.T) {
	params := mapDims()
	st := ScopeState{Names: make([]string, len(params)), Best: make([]float64, len(params)), BestCost: 1, HaveBest: true}
	for i, p := range params {
		st.Names[i] = p.Name
		st.Best[i] = p.Max + (p.Max - p.Min)
	}
	for _, backend := range Backends() {
		opt := MustNew(backend, Options{Params: params, RNG: rand.New(rand.NewSource(4)), Warm: &st})
		best, _, _ := opt.Best()
		first := opt.Next()
		for i, p := range params {
			if best[i] != p.Max || first[i] > p.Max {
				t.Fatalf("%s: %s best %v, first proposal %v; bound is %v", backend, p.Name, best[i], first[i], p.Max)
			}
		}
	}
}
