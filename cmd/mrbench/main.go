// Command mrbench is the repository's end-to-end benchmark. It runs
// each workload as fresh child processes of its own binary, checks the
// simulator's outputs against committed golden digests, and prints
// every metric by name and unit as median, quartiles and run count.
// A separate traced run attributes CPU time to the simulator's layers.
// Everything is driven through public entry points: the simulator is
// not modified to be measured.
//
// Run it from the repository root:
//
//	bash cmd/mrbench/run.sh [-workload all|<name>] [-seed S] [-runs N] [-o out.json]
//	bash cmd/mrbench/run.sh -compare base.json head.json
//	bash cmd/mrbench/run.sh -base <base mrbench binary> [-workload ...] [-runs N]
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"bufio"
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/trace"
)

const (
	// childProcs is every child run's GOMAXPROCS: day_cells' two window
	// workers, or the two goroutines of the paper figures' sweeps.
	childProcs = 2
	// childTimeout bounds one child run; the longest takes about 16 s.
	childTimeout = 120 * time.Second
	// goldenPath is where -update-golden writes, relative to the
	// repository root.
	goldenPath = "cmd/mrbench/golden.json"
)

// goldenJSON maps each workload to the sha256 of its output at its
// default seed.
//
//go:embed golden.json
var goldenJSON []byte

func main() {
	if raw, ok := os.LookupEnv(childEnv); ok {
		os.Exit(childMain(raw))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mrbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "all", "workload to run: all, "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 0, "input seed for every selected workload (default: each workload's own)")
	runs := fs.Int("runs", 5, "timed runs per workload (pairs with -base)")
	// -seconds and -trace are how BENCHMARK.json's runner invokes the
	// benchmark: --workload W --seed S --seconds T --trace 0|1.
	seconds := fs.Float64("seconds", 0, "when positive, replaces -runs: start timed runs while the next is expected to end within this many seconds (at least one)")
	traceMode := fs.Int("trace", -1, "0: set-up and timed runs, end-to-end metrics only; 1: the traced run, per-layer metrics only; -1: both")
	out := fs.String("o", "", "also write every value of every metric to this JSON file")
	compare := fs.Bool("compare", false, "compare two -o files given as arguments: base.json head.json")
	baseExe := fs.String("base", "", "compare with this mrbench binary of the base commit: run both binaries' set-up and timed runs in interleaved pairs, alternating which goes first, and judge them as -compare does")
	updateGolden := fs.Bool("update-golden", false, "rewrite "+goldenPath+" from one run of each selected workload at its default seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "mrbench: -compare takes two files: base.json head.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "mrbench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *runs < 1 || *traceMode < -1 || *traceMode > 1 {
		fmt.Fprintln(stderr, "mrbench: -runs must be at least 1 and -trace one of -1, 0, 1")
		return 2
	}
	if *baseExe != "" && (*seconds > 0 || *traceMode != -1 || *out != "" || *updateGolden) {
		fmt.Fprintln(stderr, "mrbench: -base takes only -workload, -seed and -runs")
		return 2
	}
	selected := workloads
	if *name != "all" {
		w, ok := lookupWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "mrbench: unknown workload %q (have all, %s)\n", *name, strings.Join(names, ", "))
			return 2
		}
		selected = []workload{w}
	}
	seedSet := false
	fs.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })

	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "mrbench:", err)
		return 1
	}
	b := &bench{
		exe:     exe,
		workDir: filepath.Join(".bench_build", "mrbench"),
		runs:    *runs,
		seconds: *seconds,
		timed:   *traceMode != 1,
		traced:  *traceMode != 0,
		log:     stderr,
	}
	if *updateGolden {
		return b.updateGolden(selected, stdout, stderr)
	}
	seedOf := func(w workload) uint64 {
		if seedSet {
			return *seed
		}
		return w.seed
	}
	rep := report{Host: hostInfo()}
	fmt.Fprintf(stdout, "mrbench: %s %s/%s, cpu %q, nproc %d, child GOMAXPROCS %d\n",
		rep.Host.GoVersion, rep.Host.GOOS, rep.Host.GOARCH, rep.Host.CPU, rep.Host.NProc, rep.Host.GOMAXPROCS)
	if *baseExe != "" {
		base, head := &report{Host: rep.Host}, &report{Host: rep.Host}
		for _, w := range selected {
			bw, hw := b.runPairs(w, seedOf(w), *baseExe)
			fmt.Fprint(stdout, "\nbase:")
			printSet(stdout, bw)
			fmt.Fprint(stdout, "\nhead:")
			printSet(stdout, hw)
			base.Workloads = append(base.Workloads, bw)
			head.Workloads = append(head.Workloads, hw)
		}
		fmt.Fprintf(stdout, "\ninterleaved pairs; bounds at most %g\n", pairedBound)
		return compareReports(base, head, stdout, true)
	}
	if b.traced {
		if err := os.MkdirAll(b.workDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "mrbench:", err)
			return 1
		}
	}
	for _, w := range selected {
		wr := b.runSet(w, seedOf(w))
		printSet(stdout, wr)
		rep.Workloads = append(rep.Workloads, wr)
	}
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			fmt.Fprintln(stderr, "mrbench:", err)
			return 1
		}
	}
	sum := rep.summary()
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(stderr, "mrbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !sum.Correct {
		return 1
	}
	return 0
}

// bench holds the settings of one invocation.
type bench struct {
	exe     string // binary re-executed for every child run
	workDir string // where traced runs write CPU profiles
	small   bool   // reduced inputs (see request.Small)
	runs    int    // timed runs per set, or pairs with -base
	seconds float64
	timed   bool // run set-up and timed runs: end-to-end metrics
	traced  bool // run the traced run: per-layer metrics
	log     io.Writer
}

// report is what -o writes and -compare reads.
type report struct {
	Host      host              `json:"host"`
	Workloads []*workloadResult `json:"workloads"`
}

type host struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func hostInfo() host {
	h := host{GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NProc: runtime.NumCPU(), GOMAXPROCS: childProcs}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// workloadResult is one workload's set of runs.
type workloadResult struct {
	Name      string             `json:"name"`
	Seed      uint64             `json:"seed"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Digest    string             `json:"digest"`
	DigestRef string             `json:"digest_ref"` // "golden" or "first run"
	Metrics   map[string]*series `json:"metrics"`
}

// runSet runs one workload's set-up run and timed runs, then its traced
// run, as configured.
func (b *bench) runSet(w workload, seed uint64) *workloadResult {
	s := b.newSet(w, seed, b.exe, "")
	if b.timed {
		s.setup()
		start := time.Now()
		for i := 0; b.another(i, time.Since(start)); i++ {
			s.timed()
		}
	}
	if b.traced {
		s.trace()
	}
	return s.result()
}

// another reports whether timed run i (counting from 0) should start,
// elapsed after the first started.
func (b *bench) another(i int, elapsed time.Duration) bool {
	if b.seconds <= 0 {
		return i < b.runs
	}
	return i == 0 || elapsed.Seconds()*float64(i+1)/float64(i) <= b.seconds
}

// runPairs runs b.runs pairs of one set-up run and one timed run in the
// base binary and in this one, base first in even pairs and head first
// in odd ones. The host's speed drifts over minutes; interleaving lets
// the drift reach both sides alike, where two sets made one after the
// other would each see a different host.
func (b *bench) runPairs(w workload, seed uint64, baseExe string) (base, head *workloadResult) {
	sides := [2]*set{b.newSet(w, seed, baseExe, "base "), b.newSet(w, seed, b.exe, "head ")}
	for i := 0; i < b.runs; i++ {
		for k := 0; k < 2; k++ {
			s := sides[(i+k)%2]
			s.setup()
			s.timed()
		}
	}
	return sides[0].result(), sides[1].result()
}

// set is one workload's runs in one binary. Every run's output digest
// must equal the golden one at the workload's default seed, or else the
// set's first digest.
type set struct {
	b     *bench
	exe   string
	tag   string // prefixes the set's log lines
	wr    *workloadResult
	plain []result // the timed runs that passed
}

func (b *bench) newSet(w workload, seed uint64, exe, tag string) *set {
	wr := &workloadResult{Name: w.name, Seed: seed, Metrics: map[string]*series{}, DigestRef: "first run"}
	if !b.small && seed == w.seed {
		if g, err := goldens(); err != nil {
			wr.fail(b.log, err)
		} else if g[w.name] != "" {
			wr.Digest, wr.DigestRef = g[w.name], "golden"
		}
	}
	return &set{b: b, exe: exe, tag: tag, wr: wr}
}

// do runs one child and checks its digest. A failure is recorded in the
// set and reported as false.
func (s *set) do(req request) (result, bool) {
	wr := s.wr
	req.Workload, req.Seed, req.Small = wr.Name, wr.Seed, s.b.small
	wr.Attempted++
	res, err := child(s.exe, req)
	if err == nil && req.Mode != modeSetup {
		switch {
		case wr.Digest == "":
			wr.Digest = res.Digest
		case res.Digest != wr.Digest:
			run := req.Mode
			if req.Workers > 0 {
				run += fmt.Sprintf(" %d-worker", req.Workers)
			}
			err = fmt.Errorf("%s%s %s run: output digest %.12s differs from the %s's %.12s",
				s.tag, wr.Name, run, res.Digest, wr.DigestRef, wr.Digest)
		}
	}
	if err != nil {
		wr.fail(s.b.log, err)
		return res, false
	}
	return res, true
}

func (s *set) setup() {
	if r, ok := s.do(request{Mode: modeSetup}); ok {
		s.wr.add("setup_s", r.SetupS)
	}
}

func (s *set) timed() {
	r, ok := s.do(request{Mode: modePlain})
	if !ok {
		return
	}
	s.plain = append(s.plain, r)
	fmt.Fprintf(s.b.log, "mrbench: %s%s timed run %d: %.3f s\n", s.tag, s.wr.Name, len(s.plain), r.WallS)
	s.wr.add("wall_s", r.WallS)
	s.wr.add("jobs_per_s", float64(r.Jobs)/r.WallS)
	s.wr.add("max_rss_mb", r.MaxRSSMB)
}

// result summarises every metric's values.
func (s *set) result() *workloadResult {
	for name, vals := range s.wr.Metrics {
		s.wr.Metrics[name] = newSeries(unitOf(name), vals.Values)
	}
	return s.wr
}

// trace runs the traced run and derives the per-layer metrics. Wall and
// CPU baselines come from the set's timed runs, or from one untraced run
// made here when there are none.
func (s *set) trace() {
	wr, plain := s.wr, s.plain
	if len(plain) == 0 {
		if r, ok := s.do(request{Mode: modePlain}); ok {
			plain = append(plain, r)
		}
	}
	if len(plain) == 0 {
		return
	}
	var walls, utils []float64
	for _, r := range plain {
		walls = append(walls, r.WallS)
		utils = append(utils, r.CPUS/r.WallS)
	}
	_, baseWall, _ := quartiles(walls)
	_, util, _ := quartiles(utils)

	speedup := 0.0
	if wr.Name == "day_cells" {
		// The same day on one window worker: its digest must match
		// (checked by do), and the ratio is the pool's measured gain.
		if r, ok := s.do(request{Mode: modePlain, Workers: 1}); ok {
			speedup = r.WallS / baseWall
		}
	}
	profile, err := filepath.Abs(filepath.Join(s.b.workDir, wr.Name+".cpu.pprof"))
	if err != nil {
		wr.fail(s.b.log, err)
		return
	}
	tr, ok := s.do(request{Mode: modeTraced, Profile: profile})
	if !ok {
		return
	}
	self, err := layerSelfTimes(profile)
	if err != nil {
		wr.fail(s.b.log, err)
		return
	}
	for l, secs := range self {
		wr.add(l+".self_s", secs)
	}
	count := func(k trace.Kind) float64 { return float64(tr.Counts[k]) }
	useful := 0.0
	if n := count(trace.TaskStart); n > 0 {
		useful = count(trace.TaskFinish) / n
	}
	nsPerEvent := 0.0
	if tr.Events > 0 {
		nsPerEvent = baseWall * 1e9 / float64(tr.Events)
	}
	for name, v := range map[string]float64{
		"sim.events":                     float64(tr.Events),
		"sim.ns_per_event":               nsPerEvent,
		"trace.sink_events":              float64(tr.SinkEvents),
		"sim.pool_speedup":               speedup,
		"sim.cpu_util":                   util,
		"runtime.alloc_mb":               tr.AllocMB,
		"runtime.mallocs":                float64(tr.Mallocs),
		"runtime.gc_cycles":              float64(tr.GCCycles),
		"yarn.containers":                count(trace.TaskStart),
		"mapreduce.useful_attempt_ratio": useful,
		"mapreduce.task_failed":          count(trace.TaskFailed),
		"mapreduce.task_oom":             count(trace.TaskOOM),
		"mapreduce.task_killed":          count(trace.TaskKilled),
		"mapreduce.fetch_fail":           count(trace.FetchFail),
		"mapreduce.reexec_map":           count(trace.ReexecMap),
		"faults.node_down":               count(trace.NodeDown),
		"model.mean_job_s":               tr.MeanJobS,
		"model.makespan_s":               tr.MakespanS,
		"model.expedited_imp_pct":        tr.ExpeditedImpPct,
		"model.singlerun_imp_pct":        tr.SingleRunImpPct,
		"bench.trace_overhead":           tr.WallS/baseWall - 1,
	} {
		wr.add(name, v)
	}
}

func (wr *workloadResult) add(name string, v float64) {
	s := wr.Metrics[name]
	if s == nil {
		s = &series{}
		wr.Metrics[name] = s
	}
	s.Values = append(s.Values, v)
}

func (wr *workloadResult) fail(log io.Writer, err error) {
	wr.Failed++
	wr.Errors = append(wr.Errors, err.Error())
	fmt.Fprintln(log, "mrbench: FAILED:", err)
}

func unitOf(name string) string {
	for _, d := range allMetrics {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

// child runs one request in a fresh process of the mrbench binary exe
// and adds the process's peak RSS and CPU time to its result.
func child(exe string, req request) (result, error) {
	raw, err := json.Marshal(req)
	if err != nil {
		return result{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(raw), fmt.Sprintf("GOMAXPROCS=%d", childProcs))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		msg := strings.TrimSpace(stderr.String())
		if lines := strings.Split(msg, "\n"); len(lines) > 8 {
			msg = strings.Join(lines[:8], "\n")
		}
		return result{}, fmt.Errorf("%s %s run: %w: %s", req.Workload, req.Mode, err, msg)
	}
	var res result
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return result{}, fmt.Errorf("%s %s run: bad result: %w", req.Workload, req.Mode, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.MaxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	res.CPUS = (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds()
	return res, nil
}

func goldens() (map[string]string, error) {
	g := map[string]string{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// updateGolden runs each workload once at its default seed and rewrites
// its entry in goldenPath.
func (b *bench) updateGolden(sel []workload, stdout, stderr io.Writer) int {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		fmt.Fprintln(stderr, "mrbench: -update-golden runs from the repository root:", err)
		return 1
	}
	g := map[string]string{}
	if err := json.Unmarshal(raw, &g); err != nil {
		fmt.Fprintf(stderr, "mrbench: %s: %v\n", goldenPath, err)
		return 1
	}
	for _, w := range sel {
		res, err := child(b.exe, request{Workload: w.name, Seed: w.seed, Mode: modePlain})
		if err != nil {
			fmt.Fprintln(stderr, "mrbench:", err)
			return 1
		}
		g[w.name] = res.Digest
		fmt.Fprintf(stdout, "%s seed %d: %s\n", w.name, w.seed, res.Digest)
	}
	if err := writeJSON(goldenPath, g); err != nil {
		fmt.Fprintln(stderr, "mrbench:", err)
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printSet prints one workload's metrics in definition order.
func printSet(w io.Writer, wr *workloadResult) {
	rate := 0.0
	if wr.Attempted > 0 {
		rate = float64(wr.Failed) / float64(wr.Attempted)
	}
	fmt.Fprintf(w, "\n%s (seed %d): %d runs, %d failed, error_rate %g; digest %.12s (checked against the %s)\n",
		wr.Name, wr.Seed, wr.Attempted, wr.Failed, rate, wr.Digest, wr.DigestRef)
	fmt.Fprintf(w, "  %-32s %-6s %14s %14s %14s %3s\n", "metric", "unit", "median", "q1", "q3", "n")
	for _, d := range allMetrics {
		if s := wr.Metrics[d.Name]; s != nil {
			fmt.Fprintf(w, "  %-32s %-6s %14.6g %14.6g %14.6g %3d\n", d.Name, d.Unit, s.Median, s.Q1, s.Q3, s.N)
		}
	}
	for _, e := range wr.Errors {
		fmt.Fprintln(w, "  FAILED:", e)
	}
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary reports each metric's median under its own name when one
// workload ran, and as "<workload>/<metric>" otherwise.
func (r *report) summary() summary {
	s := summary{Metrics: map[string]metricValue{}}
	for _, wr := range r.Workloads {
		s.Attempted += wr.Attempted
		s.Failed += wr.Failed
		for n, m := range wr.Metrics {
			key := n
			if len(r.Workloads) > 1 {
				key = wr.Name + "/" + n
			}
			s.Metrics[key] = metricValue{Value: m.Median, Unit: m.Unit}
		}
	}
	s.Correct = s.Failed == 0 && s.Attempted > 0
	return s
}
