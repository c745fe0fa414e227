package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/trace"
	"repro/internal/yarn"
)

// workload is one input set the benchmark runs. The seed is the
// default; -seed replaces it.
type workload struct {
	name string
	seed uint64
	why  string
}

var workloads = []workload{
	{"day", 7, "flagship serial stream day: sim, fabric and whole-cluster YARN assign do the work; HDFS on its fast path"},
	{"day_cells", 7, "the same day in two-worker rack cells: the only run of the window pool and rack-scoped RM and namenode"},
	{"fault_day", 7, "the day's arrivals plus 12 node crashes and fetch failures: degraded HDFS placement, repair and re-execution"},
	{"paper_tuning", 42, "Figs 4-6 and 10-12 on the 19-node testbed: large jobs, tuner, metrics and config layers, no 10k-node scans"},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// faultDayJSON is fault_day's schedule: crash i at 1800+7200·i s on
// node (251·i) mod 10016, restarted after 600 s, plus a 0.1% shuffle
// fetch failure rate.
//
//go:embed testdata/fault_day.json
var faultDayJSON []byte

// childEnv carries a JSON request to a re-executed copy of the binary;
// its presence makes the process a child run instead of the driver.
const childEnv = "MRBENCH_CHILD"

const (
	modeSetup  = "setup"  // time zero-work constructions
	modePlain  = "plain"  // run the workload with every instrument off
	modeTraced = "traced" // run it under a CPU profile and a counting sink
)

// setupReps is how many samples a set-up run times; setup_s is their
// median.
const setupReps = 21

// request is what the driver asks one child run to do.
type request struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Mode     string `json:"mode"`
	// Workers overrides day_cells' window worker count (0 keeps 2).
	Workers int `json:"workers,omitempty"`
	// Small shrinks the input to 4 racks × 8 nodes and one simulated
	// hour (Fig 4 on one seed for paper_tuning), and a set-up sample to
	// one construction, for tests.
	Small bool `json:"small,omitempty"`
	// Profile is the CPU profile path of a traced run.
	Profile string `json:"profile,omitempty"`
}

// result is what one child run reports. The driver adds the rusage
// fields after the child exits.
type result struct {
	WallS float64 `json:"wall_s"`
	// SetupS is a set-up run's median sample, seconds per construction.
	SetupS float64 `json:"setup_s,omitempty"`
	Jobs   int     `json:"jobs"`
	Digest string  `json:"digest,omitempty"`

	Events          uint64  `json:"events,omitempty"`
	SinkEvents      int     `json:"sink_events,omitempty"`
	MeanJobS        float64 `json:"mean_job_s,omitempty"`
	MakespanS       float64 `json:"makespan_s,omitempty"`
	ExpeditedImpPct float64 `json:"expedited_imp_pct,omitempty"`
	SingleRunImpPct float64 `json:"singlerun_imp_pct,omitempty"`

	// Counts is the counting sink's tally by event kind (traced runs on
	// the classic stream path only: cell mode refuses an outside sink).
	Counts map[trace.Kind]int `json:"counts,omitempty"`

	AllocMB  float64 `json:"alloc_mb"`
	Mallocs  uint64  `json:"mallocs"`
	GCCycles uint32  `json:"gc_cycles"`

	MaxRSSMB float64 `json:"-"`
	CPUS     float64 `json:"-"`
}

// childMain runs one child request and prints its result as JSON.
func childMain(raw string) int {
	var req request
	if err := json.Unmarshal([]byte(raw), &req); err != nil {
		fmt.Fprintln(os.Stderr, "mrbench child: bad request:", err)
		return 2
	}
	res, err := execute(req)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mrbench child:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "mrbench child:", err)
		return 1
	}
	return 0
}

func execute(req request) (result, error) {
	if _, ok := lookupWorkload(req.Workload); !ok {
		return result{}, fmt.Errorf("unknown workload %q", req.Workload)
	}
	switch req.Mode {
	case modeSetup:
		return setup(req)
	case modePlain:
		return runWorkload(req, false)
	case modeTraced:
		f, err := os.Create(req.Profile)
		if err != nil {
			return result{}, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return result{}, err
		}
		res, err := runWorkload(req, true)
		pprof.StopCPUProfile()
		if err != nil {
			return result{}, err
		}
		return res, f.Close()
	}
	return result{}, fmt.Errorf("unknown mode %q", req.Mode)
}

func runWorkload(req request, traced bool) (result, error) {
	var res result
	var err error
	if req.Workload == "paper_tuning" {
		res = paperTuning(req)
	} else {
		res, err = runStream(req, traced)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.AllocMB = float64(ms.TotalAlloc) / (1 << 20)
	res.Mallocs = ms.Mallocs
	res.GCCycles = ms.NumGC
	return res, err
}

func streamSpec(req request) (experiments.StreamSpec, error) {
	spec := experiments.DefaultStreamSpec(req.Seed)
	if req.Small {
		spec.Racks, spec.NodesPerRack, spec.HorizonSecs = 4, 8, 3600
	}
	switch req.Workload {
	case "day_cells":
		spec.Parallel = 2
		if req.Workers > 0 {
			spec.Parallel = req.Workers
		}
	case "fault_day":
		fs, err := faults.Parse(faultDayJSON)
		if err != nil {
			return spec, err
		}
		nodes := spec.Racks * spec.NodesPerRack
		for i := range fs.NodeCrashes {
			fs.NodeCrashes[i].Node %= nodes
		}
		spec.Faults = fs
	}
	return spec, nil
}

// countingSink tallies trace events by kind.
type countingSink map[trace.Kind]int

func (c countingSink) Add(e trace.Event) { c[e.Kind]++ }

func runStream(req request, traced bool) (result, error) {
	spec, err := streamSpec(req)
	if err != nil {
		return result{}, err
	}
	var counts countingSink
	if traced && spec.Parallel == 0 {
		counts = countingSink{}
		spec.Sink = counts
	}
	start := time.Now()
	r := experiments.RunStream(spec)
	wall := time.Since(start).Seconds()

	switch {
	case r.Completed != r.Jobs:
		return result{}, fmt.Errorf("%s: completed %d of %d jobs", req.Workload, r.Completed, r.Jobs)
	case r.SinkEvents != r.Stats.EventCount():
		return result{}, fmt.Errorf("%s: %d sink events, stats counted %d", req.Workload, r.SinkEvents, r.Stats.EventCount())
	}
	if counts != nil {
		total := 0
		for _, n := range counts {
			total += n
		}
		if total != r.SinkEvents {
			return result{}, fmt.Errorf("%s: counting sink saw %d events, stats sink %d", req.Workload, total, r.SinkEvents)
		}
	}
	return result{
		WallS:      wall,
		Jobs:       r.Jobs,
		Digest:     digest(r.Report()),
		Events:     r.Events,
		SinkEvents: r.SinkEvents,
		MeanJobS:   r.MeanDur,
		MakespanS:  r.Makespan,
		Counts:     counts,
	}, nil
}

// paperReps is each Env's Reps, the experiments' own default, set here
// so that the job count below follows from it.
const paperReps = 3

// Job runs behind each figure row: an expedited row runs the default and
// the offline-guide config, and per repetition an aggressive test run
// and the tuned run; a single-run row runs default and tuned.
const (
	expeditedRowJobs = 2 + 2*paperReps
	singleRunRowJobs = 2
)

// paperTuning runs the tuning figures on Env seeds seed..seed+3 and
// digests their rows at full precision. Its work is fixed, so jobs_per_s
// is the job count over wall_s; it is reported so that every workload
// carries every end-to-end metric.
func paperTuning(req request) result {
	expFigs := []struct {
		name string
		run  func(experiments.Env) []experiments.ExpeditedRow
	}{{"fig4", experiments.Env.Fig4}, {"fig5", experiments.Env.Fig5}, {"fig6", experiments.Env.Fig6}}
	singleFigs := []struct {
		name string
		run  func(experiments.Env) []experiments.SingleRunRow
	}{{"fig10", experiments.Env.Fig10}, {"fig11", experiments.Env.Fig11}, {"fig12", experiments.Env.Fig12}}
	envs := 4
	if req.Small {
		envs, expFigs, singleFigs = 1, expFigs[:1], nil
	}

	var rows strings.Builder
	var res result
	var expSum, singleSum float64
	var expN, singleN int
	start := time.Now()
	for k := 0; k < envs; k++ {
		env := experiments.Env{Seed: req.Seed + uint64(k), Reps: paperReps}
		for _, fig := range expFigs {
			for _, r := range fig.run(env) {
				fmt.Fprintf(&rows, "%d %s %+v\n", k, fig.name, r)
				expSum += 100 * r.Improvement()
				expN++
				res.Jobs += expeditedRowJobs
			}
		}
		for _, fig := range singleFigs {
			for _, r := range fig.run(env) {
				fmt.Fprintf(&rows, "%d %s %+v\n", k, fig.name, r)
				singleSum += 100 * r.Improvement()
				singleN++
				res.Jobs += singleRunRowJobs
			}
		}
	}
	res.WallS = time.Since(start).Seconds()
	res.Digest = digest(rows.String())
	if expN > 0 {
		res.ExpeditedImpPct = expSum / float64(expN)
	}
	if singleN > 0 {
		res.SingleRunImpPct = singleSum / float64(singleN)
	}
	return res
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// setupSampleSecs is the least time one set-up sample measures.
const setupSampleSecs = 0.1

// setup times setupReps samples of zero-work constructions: a stream
// whose horizon admits no arrival (1 s would admit one for about one
// seed in five), or the paper testbed's rig. A sample repeats the
// construction for about setupSampleSecs: single 10 ms samples varied
// by a third on a shared host. It starts after a collection, so garbage
// from the previous sample is not collected inside it.
func setup(req request) (result, error) {
	construct := func() error {
		experiments.Env{Seed: req.Seed}.NewRig(yarn.FIFOScheduler{})
		return nil
	}
	if req.Workload != "paper_tuning" {
		spec, err := streamSpec(req)
		if err != nil {
			return result{}, err
		}
		spec.HorizonSecs = 1e-9
		construct = func() error {
			if r := experiments.RunStream(spec); r.Jobs != 0 {
				return fmt.Errorf("%s: set-up run submitted %d jobs", req.Workload, r.Jobs)
			}
			return nil
		}
	}
	sampleSecs := setupSampleSecs
	if req.Small {
		sampleSecs = 0
	}
	batch := 1 // constructions that fill one sample, counted while warming up
	for start := time.Now(); ; batch++ {
		if err := construct(); err != nil {
			return result{}, err
		}
		if time.Since(start).Seconds() >= sampleSecs {
			break
		}
	}
	times := make([]float64, setupReps)
	for i := range times {
		runtime.GC()
		start := time.Now()
		for j := 0; j < batch; j++ {
			if err := construct(); err != nil {
				return result{}, err
			}
		}
		times[i] = time.Since(start).Seconds() / float64(batch)
	}
	_, med, _ := quartiles(times)
	return result{SetupS: med}, nil
}
