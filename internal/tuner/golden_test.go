package tuner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/lhs"
	"repro/internal/mrconf"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/proposal_golden.json from the current code")

const proposalGoldenPath = "testdata/proposal_golden.json"

// proposalGolden pins one backend run: the sha256 of its full trace,
// plus the evaluation and wave counts so a diff is readable.
type proposalGolden struct {
	Trace string `json:"trace_sha256"`
	Evals int    `json:"evals"`
	Waves int    `json:"waves"`
}

// shapedTrace drives a backend over scriptedCost and renders every
// proposal, then Best, Waves, Trajectory and Export, with %x (exact
// float bits). Each wave is handed out in full and reported in reverse
// order, so reports arrive out of proposal order as they do on a
// cluster. At every wave boundary the §6.2 shaping calls fire the way
// core.Tuner fires them: io.sort.mb's bounds narrow, and the memory
// dimension's sampling bias cycles through up, down and uniform.
func shapedTrace(backend string, seed int64, warm *ScopeState) (trace string, evals, waves int) {
	params := mapDims()
	opt := MustNew(backend, Options{Params: params, RNG: rand.New(rand.NewSource(seed)), Warm: warm})
	cost := scriptedCost(params)
	var b strings.Builder
	for evals < 5000 && !opt.Done() {
		var wave [][]float64
		for p := opt.Next(); p != nil; p = opt.Next() {
			fmt.Fprintf(&b, "%x\n", p)
			wave = append(wave, p)
		}
		if len(wave) == 0 {
			break
		}
		before := opt.Waves()
		for i := len(wave) - 1; i >= 0; i-- {
			opt.Report(wave[i], cost(wave[i]))
			evals++
		}
		if w := opt.Waves(); w != before {
			lo, hi := opt.Bounds(mrconf.IOSortMB)
			opt.Tighten(mrconf.IOSortMB, lo+0.04*(hi-lo), hi-0.02*(hi-lo))
			bias := []lhs.Weights{{1, 1, 2, 3}, {3, 2, 1, 1}, nil}[w%3]
			opt.Bias(mrconf.MapMemoryMB, bias)
			fmt.Fprintf(&b, "wave %d %s\n", w, opt.State())
		}
	}
	best, bestCost, ok := opt.Best()
	fmt.Fprintf(&b, "best=%x cost=%x ok=%v waves=%d\n", best, bestCost, ok, opt.Waves())
	fmt.Fprintf(&b, "trajectory=%x\n", opt.Trajectory())
	st := opt.Export()
	fmt.Fprintf(&b, "export=%s %v %x %x %v %d %d\n", st.Backend, st.Names, st.Best, st.BestCost, st.HaveBest, st.Evals, st.Waves)
	return b.String(), evals, opt.Waves()
}

// goldenWarmState is the warm start of the golden's warm legs: a
// finished cold hill run's export, the way the knowledge base stores it.
func goldenWarmState() *ScopeState {
	params := mapDims()
	opt := MustNew("hill", Options{Params: params, RNG: rand.New(rand.NewSource(3))})
	drive(opt, scriptedCost(params), 20000)
	st := opt.Export()
	return &st
}

// TestBackendProposalGolden pins every backend's proposal trace, bit
// for bit, at three seeds, cold and warm, with the §6.2 shaping calls
// at wave boundaries. A change to a backend or to the search plumbing
// they share that moves any proposal shows up here as a digest diff.
// Regenerate with `go test ./internal/tuner -run
// TestBackendProposalGolden -update`, only for an intended change.
func TestBackendProposalGolden(t *testing.T) {
	warm := goldenWarmState()
	got := map[string]proposalGolden{}
	for _, backend := range Backends() {
		for _, seed := range []int64{1, 7, 11} {
			for _, leg := range []struct {
				name string
				warm *ScopeState
			}{{"cold", nil}, {"warm", warm}} {
				trace, evals, waves := shapedTrace(backend, seed, leg.warm)
				sum := sha256.Sum256([]byte(trace))
				got[fmt.Sprintf("%s/seed%d/%s", backend, seed, leg.name)] = proposalGolden{
					Trace: hex.EncodeToString(sum[:]),
					Evals: evals,
					Waves: waves,
				}
			}
		}
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(proposalGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(proposalGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want map[string]proposalGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("golden has %d runs, code produced %d", len(want), len(got))
	}
	for name, g := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: not in the golden", name)
		} else if g != w {
			t.Errorf("%s: got %+v, golden %+v", name, g, w)
		}
	}
}
