// Tests live in an external package so they can drive whole jobs
// through internal/experiments (which imports internal/faults).
package faults_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/mapreduce"
	"repro/internal/mrconf"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/yarn"
)

func crashSpec() *faults.Spec {
	return &faults.Spec{
		NodeCrashes: []faults.NodeCrash{{At: 40, Node: 3, RestartAfter: 120}},
	}
}

// --- spec parsing & validation -------------------------------------

func TestLoadExampleSpec(t *testing.T) {
	s, err := faults.Load("../../examples/faults/crash.json")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(s.NodeCrashes) != 1 {
		t.Fatalf("crashes = %d, want 1", len(s.NodeCrashes))
	}
	c := s.NodeCrashes[0]
	if c.At != 40 || c.Node != 3 || c.RestartAfter != 120 {
		t.Fatalf("crash = %+v", c)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := faults.Load("no/such/spec.json"); err == nil {
		t.Fatal("Load on a missing file succeeded")
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []faults.Spec{
		{NodeCrashes: []faults.NodeCrash{{At: -1, Node: 0}}},
		{NodeCrashes: []faults.NodeCrash{{At: 0, Node: -2}}},
		{NodeSlow: []faults.NodeSlow{{At: 0, Node: 0, Factor: 0, Window: 10}}},
		{NodeSlow: []faults.NodeSlow{{At: 0, Node: 0, Factor: 1.5, Window: 10}}},
		{DiskDegrades: []faults.DiskDegrade{{At: 0, Node: 0, Factor: 0.5, Window: -1}}},
		{LinkFlaps: []faults.LinkFlap{{At: 0, Node: 0, Window: -5}}},
		{FetchFailRate: 1.0},
		{FetchFailRate: -0.1},
		{TaskAttemptFail: &faults.TaskAttemptFail{Rate: 1.5}},
		{TaskAttemptFail: &faults.TaskAttemptFail{Rate: 0.1, MeanDelaySecs: -1}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d validated: %+v", i, s)
		}
	}
	if err := crashSpec().Validate(); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := faults.Parse([]byte("{")); err == nil {
		t.Fatal("Parse accepted malformed JSON")
	}
	if _, err := faults.Parse([]byte(`{"fetch_fail_rate": 2}`)); err == nil {
		t.Fatal("Parse accepted an invalid spec")
	}
}

func TestNewRejectsBadNodeIndex(t *testing.T) {
	env := experiments.Env{Seed: 1}
	r := env.NewRig(yarn.FIFOScheduler{})
	s := faults.Spec{NodeCrashes: []faults.NodeCrash{{At: 1, Node: len(r.C.Nodes)}}}
	if _, err := faults.New(r.C, sim.NewSource(1), s, nil); err == nil {
		t.Fatal("New accepted an out-of-range node index")
	}
}

func TestCheckNodes(t *testing.T) {
	cases := []struct {
		name string
		spec faults.Spec
		want string // substring of the error; "" = valid
	}{
		{"empty", faults.Spec{}, ""},
		{"last node", faults.Spec{NodeCrashes: []faults.NodeCrash{{At: 1, Node: 17}}}, ""},
		{"crash", faults.Spec{NodeCrashes: []faults.NodeCrash{{At: 1, Node: 0}, {At: 2, Node: 18}}},
			"node_crashes[1]: node 18 out of range (cluster has 18)"},
		{"slow", faults.Spec{NodeSlow: []faults.NodeSlow{{Node: 20000, Factor: 0.5}}},
			"node_slow[0]: node 20000 out of range"},
		{"disk", faults.Spec{DiskDegrades: []faults.DiskDegrade{{Node: 18, Factor: 0.5}}},
			"disk_degrades[0]: node 18 out of range"},
		{"flap", faults.Spec{LinkFlaps: []faults.LinkFlap{{Node: 99}}},
			"link_flaps[0]: node 99 out of range"},
		{"rates only", faults.Spec{FetchFailRate: 0.1}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.CheckNodes(18)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("valid spec rejected: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("CheckNodes(18) = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestSpecRack: Rack keeps the faults of every node-addressed kind on
// nodes [lo, lo+n), renumbers them from 0, carries both rates and
// leaves its receiver unchanged.
func TestSpecRack(t *testing.T) {
	attempt := &faults.TaskAttemptFail{Rate: 0.1, MeanDelaySecs: 3}
	whole := faults.Spec{
		NodeCrashes: []faults.NodeCrash{
			{At: 1, Node: 7, RestartAfter: 5}, {At: 2, Node: 8}, {At: 3, Node: 15}, {At: 4, Node: 16},
		},
		NodeSlow:        []faults.NodeSlow{{At: 1, Node: 9, Factor: 0.5, Window: 2}, {At: 2, Node: 0, Factor: 0.3}},
		DiskDegrades:    []faults.DiskDegrade{{At: 1, Node: 31, Factor: 0.2}, {At: 2, Node: 12, Factor: 0.4, Window: 9}},
		LinkFlaps:       []faults.LinkFlap{{At: 5, Node: 14, Window: 1}, {At: 6, Node: 24, Window: 2}},
		FetchFailRate:   0.05,
		TaskAttemptFail: attempt,
	}
	before := fmt.Sprintf("%+v", whole)
	cases := []struct {
		name  string
		lo, n int
		want  faults.Spec
	}{
		{"middle rack", 8, 8, faults.Spec{
			NodeCrashes:  []faults.NodeCrash{{At: 2, Node: 0}, {At: 3, Node: 7}},
			NodeSlow:     []faults.NodeSlow{{At: 1, Node: 1, Factor: 0.5, Window: 2}},
			DiskDegrades: []faults.DiskDegrade{{At: 2, Node: 4, Factor: 0.4, Window: 9}},
			LinkFlaps:    []faults.LinkFlap{{At: 5, Node: 6, Window: 1}},
		}},
		{"first rack", 0, 8, faults.Spec{
			NodeCrashes: []faults.NodeCrash{{At: 1, Node: 7, RestartAfter: 5}},
			NodeSlow:    []faults.NodeSlow{{At: 2, Node: 0, Factor: 0.3}},
		}},
		{"last rack", 24, 8, faults.Spec{
			DiskDegrades: []faults.DiskDegrade{{At: 1, Node: 7, Factor: 0.2}},
			LinkFlaps:    []faults.LinkFlap{{At: 6, Node: 0, Window: 2}},
		}},
		{"no faults", 32, 8, faults.Spec{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.want.FetchFailRate, tc.want.TaskAttemptFail = 0.05, attempt
			if got := whole.Rack(tc.lo, tc.n); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("Rack(%d, %d) =\n%+v\nwant\n%+v", tc.lo, tc.n, got, tc.want)
			}
			if after := fmt.Sprintf("%+v", whole); after != before {
				t.Errorf("Rack changed its receiver:\n%s\nwas\n%s", after, before)
			}
		})
	}
}

// --- determinism ---------------------------------------------------

// runCrashTerasort runs one faulted Terasort and returns the recorded
// trace plus the job result.
func runCrashTerasort(t *testing.T, seed uint64, spec *faults.Spec, spec2 func(*mapreduce.Spec)) (*trace.Recorder, mapreduce.Result, *experiments.Rig) {
	t.Helper()
	env := experiments.Env{Seed: seed}
	r := env.NewRig(yarn.FIFOScheduler{})
	rec := &trace.Recorder{}
	js := mapreduce.Spec{
		Benchmark:  workload.Terasort(20, 0, 0),
		BaseConfig: mrconf.Default(),
		Trace:      rec,
	}
	if spec2 != nil {
		spec2(&js)
	}
	if spec != nil {
		inj, err := faults.New(r.C, sim.NewSource(seed), *spec, rec)
		if err != nil {
			t.Fatalf("faults.New: %v", err)
		}
		js.Faults = inj
	}
	var res mapreduce.Result
	done := false
	mapreduce.Submit(r.RM, r.FS, js, func(rr mapreduce.Result) { res = rr; done = true })
	r.Eng.Run()
	if !done {
		t.Fatal("faulted run never completed (recovery hang)")
	}
	return rec, res, r
}

func traceBytes(t *testing.T, rec *trace.Recorder) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return buf.Bytes()
}

func TestSameSeedFaultedRunBitReproducible(t *testing.T) {
	a, resA, _ := runCrashTerasort(t, 42, crashSpec(), nil)
	b, resB, _ := runCrashTerasort(t, 42, crashSpec(), nil)
	if !bytes.Equal(traceBytes(t, a), traceBytes(t, b)) {
		t.Fatal("same-seed faulted traces differ")
	}
	if resA.Duration != resB.Duration {
		t.Fatalf("durations differ: %v vs %v", resA.Duration, resB.Duration)
	}
}

func TestCrashRecoveryCompletesWithExpectedTrace(t *testing.T) {
	rec, res, r := runCrashTerasort(t, 42, crashSpec(), nil)
	if res.Failed {
		t.Fatal("crash run failed; recovery should complete it")
	}
	want := map[trace.Kind]bool{
		trace.NodeDown: false, trace.NodeUp: false, trace.ReexecMap: false,
	}
	for _, e := range rec.Events() {
		if _, ok := want[e.Kind]; ok {
			want[e.Kind] = true
		}
	}
	for k, seen := range want {
		if !seen {
			t.Errorf("trace missing %q event", k)
		}
	}
	f := r.C.Faults
	if f.NodesDowned == 0 || f.NodesRestored == 0 {
		t.Fatalf("node counters: %+v", *f)
	}
	if f.ContainersLost == 0 {
		t.Fatal("no containers reclaimed from the downed node")
	}
	if res.Counters.NodeLossKills == 0 {
		t.Fatal("no attempts killed by node loss")
	}
	if res.Counters.MapsReExecuted == 0 {
		t.Fatal("no completed maps re-executed after output loss")
	}
	if f.BlocksReReplicated == 0 {
		t.Fatal("no HDFS blocks re-replicated")
	}
}

// TestFaultsOffIsZeroCost pins the central design promise: an
// injector built from an empty spec (hooks installed, nothing armed)
// leaves the run byte-identical to a run with no injector at all —
// the hooks draw no random numbers and schedule no events.
func TestFaultsOffIsZeroCost(t *testing.T) {
	base, resBase, _ := runCrashTerasort(t, 7, nil, nil)
	empty, resEmpty, _ := runCrashTerasort(t, 7, &faults.Spec{}, nil)
	if !bytes.Equal(traceBytes(t, base), traceBytes(t, empty)) {
		t.Fatal("empty-spec injector trace differs from no-injector baseline")
	}
	if resBase.Duration != resEmpty.Duration {
		t.Fatalf("durations differ: %v vs %v", resBase.Duration, resEmpty.Duration)
	}
	if strings.Contains(string(traceBytes(t, base)), string(trace.NodeDown)) {
		t.Fatal("baseline trace contains fault events")
	}
}

// --- recovery interactions -----------------------------------------

// Speculation and crash retry must compose: shadow attempts of killed
// tasks are dropped, winners' stats survive for later re-execution,
// and the job still completes.
func TestCrashWithSpeculationCompletes(t *testing.T) {
	rec, res, _ := runCrashTerasort(t, 42, crashSpec(), func(js *mapreduce.Spec) {
		js.Speculation = mapreduce.DefaultSpeculation()
	})
	if res.Failed {
		t.Fatal("crash+speculation run failed")
	}
	if res.Counters.NodeLossKills == 0 {
		t.Fatal("crash killed nothing")
	}
	seen := false
	for _, e := range rec.Events() {
		if e.Kind == trace.ReexecMap {
			seen = true
			break
		}
	}
	if !seen {
		t.Fatal("no map re-execution under speculation")
	}
}

// Probabilistic fetch failures retry and the job completes; counters
// record every injected failure.
func TestFetchFailuresRetryToCompletion(t *testing.T) {
	spec := &faults.Spec{FetchFailRate: 0.2}
	rec, res, r := runCrashTerasort(t, 42, spec, nil)
	if res.Failed {
		t.Fatal("fetch-failure run failed")
	}
	if r.C.Faults.FetchFailures == 0 {
		t.Fatal("no fetch failures injected at rate 0.2")
	}
	n := 0
	for _, e := range rec.Events() {
		if e.Kind == trace.FetchFail {
			n++
		}
	}
	if n != r.C.Faults.FetchFailures {
		t.Fatalf("trace fetch_fail events = %d, counter = %d", n, r.C.Faults.FetchFailures)
	}
}

// Injected attempt failures consume MaxAttempts but the job survives
// at a modest rate, and the tuner path stays live (samples discarded,
// not poisoned).
func TestAttemptFailuresRetryToCompletion(t *testing.T) {
	spec := &faults.Spec{TaskAttemptFail: &faults.TaskAttemptFail{Rate: 0.05, MeanDelaySecs: 3}}
	_, res, _ := runCrashTerasort(t, 42, spec, nil)
	if res.Failed {
		t.Fatal("5% attempt-failure run failed")
	}
	if res.Counters.TaskFailures == 0 {
		t.Fatal("no attempt failures injected at rate 0.05")
	}
}

// The CI fault matrix: the crash scenario must complete with live
// recovery counters across seeds, not just the golden one.
func TestFaultMatrixSmoke(t *testing.T) {
	for _, seed := range []uint64{1, 42, 1234} {
		_, res, r := runCrashTerasort(t, seed, crashSpec(), nil)
		if res.Failed {
			t.Fatalf("seed %d: crash run failed", seed)
		}
		if r.C.Faults.NodesDowned == 0 || r.C.Faults.ContainersLost == 0 {
			t.Fatalf("seed %d: recovery counters flat: %+v", seed, *r.C.Faults)
		}
	}
}

// Slowdown windows restore capacity afterwards: a transient 4x CPU
// slowdown must not wedge the run.
func TestTransientSlowdownCompletes(t *testing.T) {
	spec := &faults.Spec{
		NodeSlow:     []faults.NodeSlow{{At: 30, Node: 2, Factor: 0.25, Window: 60}},
		DiskDegrades: []faults.DiskDegrade{{At: 30, Node: 5, Factor: 0.5, Window: 60}},
		LinkFlaps:    []faults.LinkFlap{{At: 50, Node: 8, Window: 10}},
	}
	_, res, _ := runCrashTerasort(t, 42, spec, nil)
	if res.Failed {
		t.Fatal("slowdown run failed")
	}
}
