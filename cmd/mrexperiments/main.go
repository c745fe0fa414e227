// Command mrexperiments regenerates the tables and figures of the
// MRONLINE paper (HPDC'14) on the simulated 19-node cluster.
//
// Usage:
//
//	mrexperiments -run all
//	mrexperiments -run fig4,fig13 -seed 7
//	mrexperiments -run scorecard
//
// -run takes the IDs of experiments.Sections, which -help lists. 'all'
// runs every one but scorecard: every claim of experiments.Claims at
// experiments.ScorecardSeeds seeds, -seed + 977·i, with its value at
// -seed, median, range and how many seeds fall in its band. The
// scorecard gates nothing; it exits 0 whatever the spread.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/tuner"
)

func main() {
	var (
		run        = flag.String("run", "all", "comma-separated artifact ids, or 'all': "+sectionIDs())
		seed       = flag.Uint64("seed", 42, "simulation seed")
		htmlPath   = flag.String("html", "", "write a self-contained HTML report (runs everything)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		faultSpec  = flag.String("faults", "", "inject faults from this JSON spec into the testbed and stream runs, except the MRONLINE legs of fig4-fig9 and the fig14-fig16, hotspot and straggler runs (see examples/faults/)")
		tunerName  = flag.String("tuner", "hill", "optimizer backend for aggressive tuning runs: "+strings.Join(tuner.Backends(), "|"))
		kbPath     = flag.String("kb", "", "knowledge base JSON file: the aggressive test runs of fig13, testruns and amortization warm-start from it (the MRONLINE legs of fig4-fig9 do not), and it is saved after the run")
		cells      = flag.Bool("cells", false, "run the continuous-serving legs on the rack-cell partition (one cell per rack)")
	)
	flag.Parse()

	if !slices.Contains(tuner.Backends(), *tunerName) {
		exitIf(fmt.Errorf("unknown -tuner backend %q (registered: %s)", *tunerName, strings.Join(tuner.Backends(), ", ")), 2)
	}
	secs, err := pick(*run)
	exitIf(err, 2)
	serving := func(s experiments.Section) bool { return s.Cluster == experiments.Serving }
	if *cells && (*htmlPath != "" || !slices.ContainsFunc(secs, serving)) {
		exitIf(errors.New("-cells applies only to the continuous-serving legs of -run stream"), 2)
	}
	if *kbPath != "" && slices.ContainsFunc(secs, func(s experiments.Section) bool { return s.ID == "scorecard" }) {
		exitIf(errors.New("-kb does not apply to -run scorecard: its seeds run in parallel and would update one knowledge base in an arbitrary order"), 2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		exitIf(err, 1)
		exitIf(pprof.StartCPUProfile(f), 1)
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			exitIf(err, 1)
			runtime.GC()
			exitIf(pprof.WriteHeapProfile(f), 1)
			f.Close()
		}()
	}

	env := experiments.Env{Seed: *seed, Backend: *tunerName}
	if *kbPath != "" {
		env.KB, err = core.LoadOrNew(*kbPath)
		exitIf(err, 2)
	}
	if *faultSpec != "" {
		env.FaultSpec, err = faults.Load(*faultSpec)
		exitIf(err, 2)
	}
	if *htmlPath != "" {
		secs = experiments.Sections() // the report may run any of them
	}
	// Every node the -faults spec names must exist on the cluster of
	// each section that runs.
	for _, s := range secs {
		exitIf(env.CheckFaultNodes(s.Cluster == experiments.Serving, s.Cluster == experiments.Testbed), 2)
	}

	r := env.NewResults(*cells)
	if *htmlPath != "" {
		f, err := os.Create(*htmlPath)
		exitIf(err, 1)
		exitIf(r.BuildReport().RenderHTML(f), 1)
		exitIf(f.Close(), 1)
		fmt.Printf("wrote %s\n", *htmlPath)
	} else {
		out := bufio.NewWriter(os.Stdout)
		for _, s := range secs {
			s.Print(out, r)
			exitIf(out.Flush(), 1)
		}
	}
	if env.KB != nil {
		exitIf(env.KB.Save(*kbPath), 1)
	}
}

// exitIf prints err to stderr and exits with code, unless err is nil.
func exitIf(err error, code int) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(code)
	}
}

// pick returns the sections run names, in its order; "all" names every
// section but those NotInAll.
func pick(run string) ([]experiments.Section, error) {
	var secs []experiments.Section
	for _, id := range strings.Split(run, ",") {
		n := len(secs)
		for _, s := range experiments.Sections() {
			if s.ID == id || id == "all" && !s.NotInAll {
				secs = append(secs, s)
			}
		}
		if len(secs) == n {
			return nil, fmt.Errorf("unknown artifact %q", id)
		}
	}
	return secs, nil
}

// sectionIDs lists the -run IDs for the flag's help.
func sectionIDs() string {
	var ids []string
	for _, s := range experiments.Sections() {
		if s.NotInAll {
			s.ID += " (not in 'all')"
		}
		ids = append(ids, s.ID)
	}
	return strings.Join(ids, ", ")
}
