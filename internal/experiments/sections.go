package experiments

import (
	"cmp"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"

	"repro/internal/mapreduce"
	"repro/internal/mrconf"
	"repro/internal/report"
	"repro/internal/tuner"
	"repro/internal/workload"
)

// A Cluster is what a section runs its jobs on, so every node a -faults
// spec names must exist there before the section runs.
type Cluster int

const (
	NoCluster Cluster = iota // the section runs no job
	Testbed                  // the paper's 19-node testbed
	Serving                  // DefaultStreamSpec's 10,016-node serving cluster
)

// A Section is one artifact of the paper's evaluation or of an
// extension: the text `mrexperiments -run <ID>` prints, the chart the
// -html report draws, and the rows the claims read. Sections lists
// every one, and each section's arguments are written only there.
type Section struct {
	ID       string  // the section's name on the command line
	title    string  // the heading its text starts with
	Cluster  Cluster // what its jobs run on
	NotInAll bool    // left out of `-run all`
	// rows keys the rows the section prints, and their figure-golden
	// digest, when it is not ID. claims is the first segment of the IDs
	// of the claims the rows feed, when it is not ID.
	rows, claims string
	// run fills the rows' field of r under e and returns it; nil for a
	// section that runs no job. Sections that print the same rows share
	// it: fig7 prints fig4's.
	run   func(e Env, r *Results) any
	print func(w io.Writer, r *Results)
	chart func(doc *report.Document, r *Results) // nil: not in the -html report
}

// Results holds one Env's rows of every section, each computed the
// first time a section needs them.
type Results struct {
	env                 Env
	cells               bool
	done                map[string]bool
	Table3              []Table3Row
	Fig4, Fig5, Fig6    []ExpeditedRow
	Fig10, Fig11, Fig12 []SingleRunRow
	Fig13               []JobSizeRow
	MultiTenant         MultiTenantResult
	TestRuns            []TestRunCountRow
	HotSpot             HotSpotRow
	Straggler           StragglerRow
	Amortization        []AmortizationRow
	JobStream           JobStreamRow
	Serving             [2]StreamResult // the continuous-serving legs, default then tuned
	FaultRecovery       []FaultRecoveryRow
	Tournament          []TournamentRow
	Scorecard           Scorecard
}

// NewResults returns empty results for e. With cells the stream
// section runs its continuous-serving legs on the rack-cell partition,
// one cell per rack over GOMAXPROCS workers.
func (e Env) NewResults(cells bool) *Results {
	return &Results{env: e, cells: cells, done: make(map[string]bool)}
}

// need computes the rows s prints unless r holds them.
func (r *Results) need(s Section) {
	if s.run != nil && !r.done[s.key()] {
		r.done[s.key()] = true
		s.run(r.env, r)
	}
}

// key names the rows s prints: rows, or else its ID.
func (s Section) key() string { return cmp.Or(s.rows, s.ID) }

// Print computes the rows s prints unless r holds them, then writes
// the section's text to w. A write error is w's to keep, as a
// bufio.Writer does until Flush.
func (s Section) Print(w io.Writer, r *Results) {
	r.need(s)
	header(w, s.title)
	s.print(w, r)
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("-", len(title)))
}

// Claims returns the claims s's rows feed.
func (s Section) Claims() []Claim {
	seg := cmp.Or(s.claims, s.ID) + "/"
	return slices.DeleteFunc(Claims(), func(c Claim) bool { return !strings.HasPrefix(c.ID, seg) })
}

// Sections returns every section in `-run all` order, then the
// sections outside it. It builds the list on each call.
func Sections() []Section {
	fig4 := func(e Env, r *Results) any { r.Fig4 = e.Fig4(); return r.Fig4 }
	fig5 := func(e Env, r *Results) any { r.Fig5 = e.Fig5(); return r.Fig5 }
	fig6 := func(e Env, r *Results) any { r.Fig6 = e.Fig6(); return r.Fig6 }
	multiTenant := func(e Env, r *Results) any { r.MultiTenant = e.MultiTenant(); return r.MultiTenant }
	return []Section{
		{ID: "table2", Cluster: NoCluster, title: "Table 2: key configuration parameters and defaults",
			print: func(w io.Writer, _ *Results) {
				fmt.Fprintf(w, "%-52s %10s %8s %8s %12s %s\n", "parameter", "default", "min", "max", "category", "scope")
				for _, p := range mrconf.Params() {
					fmt.Fprintf(w, "%-52s %10g %8g %8g %12s %s\n", p.Name, p.Default, p.Min, p.Max, p.Category, p.Scope)
				}
			}},
		{ID: "table3", Cluster: Testbed, title: "Table 3: benchmark characteristics (table vs measured)",
			run: func(e Env, r *Results) any { r.Table3 = e.Table3(); return r.Table3 },
			print: func(w io.Writer, r *Results) {
				fmt.Fprintf(w, "%-26s %9s %9s %9s | %9s %9s %5s %4s %s\n",
					"benchmark", "input", "shuffle", "output", "meas shfl", "meas out", "maps", "red", "type")
				for _, x := range r.Table3 {
					fmt.Fprintf(w, "%-26s %8.1fG %8.1fG %8.1fG | %8.1fG %8.1fG %5d %4d %s\n",
						x.Bench, x.InputMB/1024, x.ShuffleMB/1024, x.OutputMB/1024,
						x.MeasShuffleMB/1024, x.MeasOutputMB/1024, x.Maps, x.Reduces, x.JobType)
				}
			},
			chart: func(doc *report.Document, r *Results) {
				t3 := &report.Table{Header: []string{"benchmark", "input GB", "shuffle GB (measured)", "output GB (measured)", "maps", "reduces", "type"}}
				for _, x := range r.Table3 {
					t3.Rows = append(t3.Rows, []string{
						x.Bench,
						fmt.Sprintf("%.1f", x.InputMB/1024),
						fmt.Sprintf("%.1f (%.1f)", x.ShuffleMB/1024, x.MeasShuffleMB/1024),
						fmt.Sprintf("%.1f (%.1f)", x.OutputMB/1024, x.MeasOutputMB/1024),
						fmt.Sprintf("%d", x.Maps), fmt.Sprintf("%d", x.Reduces), x.JobType,
					})
				}
				doc.AddTable("Table 3 — benchmark characteristics",
					"Paper volumes with measured values in parentheses.", t3)
			}},
		{ID: "fig4", Cluster: Testbed, title: "Figure 4: Terasort, expedited test runs use case", run: fig4,
			print: func(w io.Writer, r *Results) { printExpedited(w, r.Fig4) },
			chart: func(doc *report.Document, r *Results) {
				chartExpedited(doc, "Figure 4 — Terasort, expedited test runs",
					"Aggressive gray-box tuning in one instrumented run, then re-run with the best configuration.", r.Fig4)
			}},
		{ID: "fig5", Cluster: Testbed, title: "Figure 5: Wikipedia apps, expedited test runs use case", run: fig5,
			print: func(w io.Writer, r *Results) { printExpedited(w, r.Fig5) },
			chart: func(doc *report.Document, r *Results) {
				chartExpedited(doc, "Figure 5 — Wikipedia applications, expedited test runs", "", r.Fig5)
			}},
		{ID: "fig6", Cluster: Testbed, title: "Figure 6: Freebase apps, expedited test runs use case", run: fig6,
			print: func(w io.Writer, r *Results) { printExpedited(w, r.Fig6) },
			chart: func(doc *report.Document, r *Results) {
				chartExpedited(doc, "Figure 6 — Freebase applications, expedited test runs", "", r.Fig6)
			}},
		{ID: "fig7", Cluster: Testbed, title: "Figure 7: Terasort spilled records", rows: "fig4", run: fig4,
			print: func(w io.Writer, r *Results) { printSpills(w, r.Fig4) }},
		{ID: "fig8", Cluster: Testbed, title: "Figure 8: Wikipedia apps spilled records", rows: "fig5", run: fig5,
			print: func(w io.Writer, r *Results) { printSpills(w, r.Fig5) }},
		{ID: "fig9", Cluster: Testbed, title: "Figure 9: Freebase apps spilled records", rows: "fig6", run: fig6,
			print: func(w io.Writer, r *Results) { printSpills(w, r.Fig6) }},
		{ID: "fig10", Cluster: Testbed, title: "Figure 10: Terasort, fast single run use case",
			run:   func(e Env, r *Results) any { r.Fig10 = e.Fig10(); return r.Fig10 },
			print: func(w io.Writer, r *Results) { printSingleRun(w, r.Fig10) },
			chart: func(doc *report.Document, r *Results) {
				chartSingleRun(doc, "Figure 10 — Terasort, fast single run", r.Fig10)
			}},
		{ID: "fig11", Cluster: Testbed, title: "Figure 11: Wikipedia apps, fast single run use case",
			run:   func(e Env, r *Results) any { r.Fig11 = e.Fig11(); return r.Fig11 },
			print: func(w io.Writer, r *Results) { printSingleRun(w, r.Fig11) },
			chart: func(doc *report.Document, r *Results) {
				chartSingleRun(doc, "Figure 11 — Wikipedia applications, fast single run", r.Fig11)
			}},
		{ID: "fig12", Cluster: Testbed, title: "Figure 12: Freebase apps, fast single run use case",
			run:   func(e Env, r *Results) any { r.Fig12 = e.Fig12(); return r.Fig12 },
			print: func(w io.Writer, r *Results) { printSingleRun(w, r.Fig12) },
			chart: func(doc *report.Document, r *Results) {
				chartSingleRun(doc, "Figure 12 — Freebase applications, fast single run", r.Fig12)
			}},
		{ID: "fig13", Cluster: Testbed, title: "Figure 13: Terasort job-size study",
			run: func(e Env, r *Results) any { r.Fig13 = e.Fig13(); return r.Fig13 },
			print: func(w io.Writer, r *Results) {
				fmt.Fprintf(w, "%6s %5s %5s %9s %9s %12s\n", "size", "maps", "red", "default", "MRONLINE", "improvement")
				for _, x := range r.Fig13 {
					fmt.Fprintf(w, "%4dGB %5d %5d %8.0fs %8.0fs %11.0f%%\n",
						x.SizeGB, x.Maps, x.Reduces, x.DefaultDur, x.MronlineDur, 100*x.Improvement())
				}
			},
			chart: func(doc *report.Document, r *Results) {
				sizes := &report.BarChart{YLabel: "job execution time (s)", Series: []string{"Default", "MRONLINE"}}
				for _, x := range r.Fig13 {
					sizes.Groups = append(sizes.Groups, report.BarGroup{
						Label: fmt.Sprintf("%dGB", x.SizeGB), Values: []float64{x.DefaultDur, x.MronlineDur}})
				}
				doc.AddChart("Figure 13 — job-size study",
					"Below ~10 GB the search cannot complete a sampling wave (m=24) and gains vanish.", sizes)
			}},
		{ID: "fig14", Cluster: Testbed, title: "Figure 14: multi-tenant job execution time (Terasort 60GB + BBP, fair share)",
			rows: "multitenant", run: multiTenant,
			print: func(w io.Writer, r *Results) {
				mt := r.MultiTenant
				fmt.Fprintf(w, "%-10s %9s %9s %12s\n", "app", "default", "MRONLINE", "improvement")
				for _, app := range []struct {
					name     string
					def, mro mapreduce.Result
				}{
					{"Terasort", mt.Default.Terasort, mt.Mronline.Terasort},
					{"BBP", mt.Default.BBP, mt.Mronline.BBP},
				} {
					defSecs, _ := app.def.Secs()
					mroSecs, _ := app.mro.Secs()
					imp, _ := Gain(app.def, app.mro)
					fmt.Fprintf(w, "%-10s %8.0fs %8.0fs %11.0f%%\n", app.name, defSecs, mroSecs, 100*imp)
				}
				fmt.Fprintf(w, "Terasort spilled records: %.2e -> %.2e\n",
					mt.Default.Terasort.Counters.SpilledRecords(), mt.Mronline.Terasort.Counters.SpilledRecords())
			},
			chart: func(doc *report.Document, r *Results) {
				mt := r.MultiTenant
				tsDef, _ := mt.Default.Terasort.Secs()
				tsMro, _ := mt.Mronline.Terasort.Secs()
				bbpDef, _ := mt.Default.BBP.Secs()
				bbpMro, _ := mt.Mronline.BBP.Secs()
				doc.AddChart("Figure 14 — multi-tenant execution time",
					"Terasort 60 GB and BBP under fair-share scheduling; per-application tuning.",
					&report.BarChart{YLabel: "job execution time (s)", Series: []string{"Default", "MRONLINE"},
						Groups: []report.BarGroup{
							{Label: "Terasort", Values: []float64{tsDef, tsMro}},
							{Label: "BBP", Values: []float64{bbpDef, bbpMro}},
						}})
			}},
		{ID: "fig15", Cluster: Testbed, title: "Figure 15: multi-tenant memory utilization", rows: "multitenant", run: multiTenant,
			print: func(w io.Writer, r *Results) { printUtil(w, r.MultiTenant, memUtil) },
			chart: func(doc *report.Document, r *Results) {
				doc.AddChart("Figure 15 — multi-tenant memory utilization", "", utilChart(r.MultiTenant, memUtil))
			}},
		{ID: "fig16", Cluster: Testbed, title: "Figure 16: multi-tenant CPU utilization", rows: "multitenant", run: multiTenant,
			print: func(w io.Writer, r *Results) { printUtil(w, r.MultiTenant, cpuUtil) },
			chart: func(doc *report.Document, r *Results) {
				doc.AddChart("Figure 16 — multi-tenant CPU utilization", "", utilChart(r.MultiTenant, cpuUtil))
			}},
		{ID: "testruns", Cluster: Testbed, title: "Test-run count to a tuned configuration (paper §7)", claims: "s7",
			run: func(e Env, r *Results) any {
				r.TestRuns = e.TestRunCounts(workload.Terasort(20, 0, 0), 4)
				return r.TestRuns
			},
			print: func(w io.Writer, r *Results) {
				fmt.Fprintf(w, "%-24s %6s %10s\n", "approach", "runs", "job time")
				for _, x := range r.TestRuns {
					fmt.Fprintf(w, "%-24s %6d %9.0fs\n", x.Approach, x.Runs, x.BestDur)
				}
			},
			chart: func(doc *report.Document, r *Results) {
				chart := &report.BarChart{YLabel: "test runs", Series: []string{"runs"}}
				for _, x := range r.TestRuns {
					chart.Groups = append(chart.Groups, report.BarGroup{Label: x.Approach, Values: []float64{float64(x.Runs)}})
				}
				doc.AddChart("Test runs to a tuned configuration (§7)",
					"MRONLINE finishes inside one instrumented run; a Gunther-style GA needs tens.", chart)
			}},
		{ID: "hotspot", Cluster: Testbed, title: "Extension: hot-spot avoidance (4 interfered nodes, Terasort 20GB)",
			run: func(e Env, r *Results) any { r.HotSpot = e.HotSpotStudy(4); return r.HotSpot },
			print: func(w io.Writer, r *Results) {
				x := r.HotSpot
				fmt.Fprintf(w, "%-22s %9s\n", "placement", "job time")
				fmt.Fprintf(w, "%-22s %8.0fs\n", "clean cluster", x.CleanDur)
				fmt.Fprintf(w, "%-22s %8.0fs\n", "hot, blind", x.DefaultDur)
				fmt.Fprintf(w, "%-22s %8.0fs (%.0f%% vs blind)\n", "hot, avoiding", x.AvoidDur, 100*x.Improvement())
			},
			chart: func(doc *report.Document, r *Results) {
				doc.AddChart("Extension — hot-spot avoidance",
					"Terasort 20 GB with 4 interfered nodes: blind placement vs utilization-aware placement.",
					&report.BarChart{YLabel: "job execution time (s)", Series: []string{"seconds"},
						Groups: []report.BarGroup{
							{Label: "clean cluster", Values: []float64{r.HotSpot.CleanDur}},
							{Label: "hot, blind", Values: []float64{r.HotSpot.DefaultDur}},
							{Label: "hot, avoiding", Values: []float64{r.HotSpot.AvoidDur}},
						}})
			}},
		{ID: "straggler", Cluster: Testbed, title: "Extension: straggler mitigation (interference arrives mid-job)",
			run: func(e Env, r *Results) any { r.Straggler = e.StragglerStudy(3); return r.Straggler },
			print: func(w io.Writer, r *Results) {
				x := r.Straggler
				fmt.Fprintf(w, "%-22s %9s\n", "mitigation", "job time")
				fmt.Fprintf(w, "%-22s %8.0fs\n", "none", x.NoneDur)
				fmt.Fprintf(w, "%-22s %8.0fs (%d launched, %d won)\n", "speculation", x.SpeculationDur, x.SpecLaunches, x.SpecWins)
				fmt.Fprintf(w, "%-22s %8.0fs\n", "hot-spot avoidance", x.AvoidanceDur)
				fmt.Fprintf(w, "%-22s %8.0fs\n", "both", x.BothDur)
			},
			chart: func(doc *report.Document, r *Results) {
				doc.AddChart("Extension — straggler mitigation",
					"Interference arrives mid-job: speculation re-runs stragglers elsewhere; replica-aware placement keeps HDFS writes off hot disks.",
					&report.BarChart{YLabel: "job execution time (s)", Series: []string{"seconds"},
						Groups: []report.BarGroup{
							{Label: "none", Values: []float64{r.Straggler.NoneDur}},
							{Label: "speculation", Values: []float64{r.Straggler.SpeculationDur}},
							{Label: "hot-spot avoidance", Values: []float64{r.Straggler.AvoidanceDur}},
							{Label: "both", Values: []float64{r.Straggler.BothDur}},
						}})
			}},
		{ID: "amortization", Cluster: Testbed, title: "Extension: knowledge-base amortization (Terasort 60GB, 8 runs)",
			run: func(e Env, r *Results) any {
				r.Amortization = e.Amortization(workload.Terasort(60, 0, 0), 8)
				return r.Amortization
			},
			print: func(w io.Writer, r *Results) {
				fmt.Fprintf(w, "%5s %12s %12s %14s\n", "runs", "default", "MRONLINE+KB", "conservative")
				for _, x := range r.Amortization {
					fmt.Fprintf(w, "%5d %11.0fs %11.0fs %13.0fs\n",
						x.Runs, x.CumulativeDefault, x.CumulativeMronline, x.CumulativeConserv)
				}
			},
			chart: func(doc *report.Document, r *Results) {
				chart := &report.BarChart{YLabel: "cumulative time (s)",
					Series: []string{"Default every run", "Test run + knowledge base", "Conservative every run"}}
				for _, x := range r.Amortization {
					chart.Groups = append(chart.Groups, report.BarGroup{
						Label:  fmt.Sprintf("%d", x.Runs),
						Values: []float64{x.CumulativeDefault, x.CumulativeMronline, x.CumulativeConserv},
					})
				}
				doc.AddChart("Extension — knowledge-base amortization (Terasort 60 GB)",
					"The aggressive test run costs more than one default run, then the stored configuration overtakes from the second run on.",
					chart)
			}},
		{ID: "stream", Cluster: Serving, title: "Extension: multi-job arrival stream (9 mixed jobs, fair share)",
			rows: "jobstream",
			run: func(e Env, r *Results) any {
				// The job stream on the testbed, then an hour of continuous
				// serving, untuned and tuned; the rows are the job stream's.
				r.JobStream = e.JobStream(9, 30)
				spec := DefaultStreamSpec(e.Seed)
				spec.HorizonSecs = 3600
				spec.Faults = e.FaultSpec
				if r.cells {
					spec.Parallel = runtime.GOMAXPROCS(0)
				}
				for i := range r.Serving {
					spec.Tuned = i == 1
					r.Serving[i] = RunStream(spec)
				}
				return r.JobStream
			},
			print: func(w io.Writer, r *Results) {
				js := r.JobStream
				fmt.Fprintf(w, "mean completion: default %.0fs -> MRONLINE %.0fs (%.0f%%)\n",
					js.MeanDefault, js.MeanMronline, 100*js.Improvement())
				fmt.Fprintf(w, "makespan:        default %.0fs -> MRONLINE %.0fs\n",
					js.MakespanDefault, js.MakespanMron)

				header(w, "Extension: continuous serving (1h stream, 10,016 nodes, fair share)")
				if r.cells {
					fmt.Fprintf(w, "rack-cell mode: %d cells\n", DefaultStreamSpec(r.env.Seed).Racks)
				}
				fmt.Fprintf(w, "%-10s %6s %10s %9s %9s %9s\n",
					"leg", "jobs", "makespan", "mean", "p99~", "max")
				for i, leg := range []string{"default", "MRONLINE"} {
					res := r.Serving[i]
					all := res.Stats.Overall()
					fmt.Fprintf(w, "%-10s %6d %9.0fs %8.1fs %8.1fs %8.1fs\n",
						leg, res.Jobs, res.Makespan, all.MeanDuration(),
						all.ApproxPercentile(99), all.DurMax)
				}
				fmt.Fprintln(w, "\nper-class latency (default leg):")
				r.Serving[0].Stats.WriteSummary(w)
			},
			chart: func(doc *report.Document, r *Results) {
				doc.AddChart("Extension — multi-job arrival stream",
					"Nine mixed jobs with exponential arrivals under fair share, a conservative tuner attached to each.",
					&report.BarChart{YLabel: "seconds", Series: []string{"Default", "MRONLINE"},
						Groups: []report.BarGroup{
							{Label: "mean completion", Values: []float64{r.JobStream.MeanDefault, r.JobStream.MeanMronline}},
							{Label: "makespan", Values: []float64{r.JobStream.MakespanDefault, r.JobStream.MakespanMron}},
						}})
			}},
		{ID: "faults", Cluster: Testbed, title: "Extension: failure recovery under tuning (Terasort 20GB, mid-job node crash)",
			run: func(e Env, r *Results) any { r.FaultRecovery = e.FaultRecovery(); return r.FaultRecovery },
			print: func(w io.Writer, r *Results) {
				fmt.Fprintf(w, "%-18s %9s %7s %8s %8s %8s %8s\n",
					"leg", "job time", "failed", "killed", "reexec", "lost", "rerepl")
				for _, x := range r.FaultRecovery {
					fmt.Fprintf(w, "%-18s %8.0fs %7v %8d %8d %8d %8d\n",
						x.Leg, x.Duration, x.Failed, x.NodeLossKills, x.MapsReExecuted,
						x.Faults.ContainersLost, x.Faults.BlocksReReplicated)
				}
			}},
		{ID: "tournament", Cluster: Testbed, title: "Extension: optimizer backend tournament (Table 3 apps x " +
			strings.Join(tuner.Backends(), "/") + ", crash churn, warm restart)",
			run: func(e Env, r *Results) any { r.Tournament = e.Tournament(DefaultTournamentSpec()); return r.Tournament },
			print: func(w io.Writer, r *Results) {
				fmt.Fprintf(w, "%-26s %-7s %6s %6s %9s %9s %9s %8s | %9s %9s %6s | %5s %5s %9s\n",
					"benchmark", "backend", "evals", "waves", "test run", "tuned", "cost", "to15%",
					"churn tst", "churn tun", "failed", "coldW", "warmW", "warm tst")
				for _, x := range r.Tournament {
					fmt.Fprintf(w, "%-26s %-7s %6d %6d %8.0fs %8.0fs %9.3f %8d | %8.0fs %8.0fs %6v | %5d %5d %8.0fs\n",
						x.Bench, x.Backend, x.Evals, x.Waves, x.TestRunDur, x.TunedDur, x.FinalCost,
						x.TestsTo15, x.ChurnTestDur, x.ChurnTunedDur, x.ChurnFailed,
						x.ColdWaves, x.WarmWaves, x.WarmDur)
				}
			}},
		{ID: "scorecard", Cluster: Testbed, title: fmt.Sprintf("Paper scorecard: every claim at %d seeds", ScorecardSeeds),
			NotInAll: true,
			run:      func(e Env, r *Results) any { r.Scorecard = e.Scorecard(ScorecardSeeds); return r.Scorecard },
			print:    func(w io.Writer, r *Results) { r.Scorecard.Write(w) }},
	}
}

// BuildReport assembles the visual report that cmd/mrexperiments -html
// writes: the chart or table of every section that draws one, in
// Sections order, each computed through r, then the seed sweep.
func (r *Results) BuildReport() *report.Document {
	doc := &report.Document{
		Title: "MRONLINE reproduction — results",
		Subtitle: "Every table and figure of 'MRONLINE: MapReduce Online Performance Tuning' " +
			"(HPDC'14), regenerated on the simulated 19-node cluster. Absolute seconds are " +
			"simulator time; shapes are the reproduction target (see EXPERIMENTS.md).",
	}
	for _, s := range Sections() {
		if s.chart != nil {
			r.need(s)
			s.chart(doc, r)
		}
	}

	sw := r.env.SeedSweep(workload.Terasort(60, 0, 0), 5)
	doc.AddChart("Robustness — expedited gain across 5 seeds (Terasort 60 GB)",
		fmt.Sprintf("mean %.0f%%, min %.0f%%, max %.0f%%, σ %.1f points",
			100*sw.MeanImp, 100*sw.MinImp, 100*sw.MaxImp, 100*sw.StdDev),
		&report.BarChart{YLabel: "improvement (%)", Series: []string{"percent"},
			Groups: []report.BarGroup{
				{Label: "min", Values: []float64{100 * sw.MinImp}},
				{Label: "mean", Values: []float64{100 * sw.MeanImp}},
				{Label: "max", Values: []float64{100 * sw.MaxImp}},
			}})
	return doc
}

// chartExpedited draws an expedited figure and, after it, its spills
// (Figs 7–9).
func chartExpedited(doc *report.Document, title, caption string, rows []ExpeditedRow) {
	chart := &report.BarChart{YLabel: "job execution time (s)", Series: []string{"Default", "Offline tuning", "MRONLINE"}}
	spills := &report.BarChart{YLabel: "spilled records", Series: []string{"Optimal", "Default", "Offline", "MRONLINE"}, ValueFormat: "%.2g"}
	for _, x := range rows {
		chart.Groups = append(chart.Groups, report.BarGroup{
			Label: x.Bench, Values: []float64{x.DefaultDur, x.OfflineDur, x.MronlineDur}})
		spills.Groups = append(spills.Groups, report.BarGroup{
			Label: x.Bench, Values: []float64{x.OptimalSpills, x.DefaultSpills, x.OfflineSpills, x.MronlineSpills}})
	}
	doc.AddChart(title, caption, chart)
	doc.AddChart(title+" — spilled records",
		"Optimal is the combiner output record count (Figs 7–9 in the paper).", spills)
}

func chartSingleRun(doc *report.Document, title string, rows []SingleRunRow) {
	chart := &report.BarChart{YLabel: "job execution time (s)", Series: []string{"Default", "MRONLINE"}}
	for _, x := range rows {
		chart.Groups = append(chart.Groups, report.BarGroup{
			Label: x.Bench, Values: []float64{x.DefaultDur, x.MronlineDur}})
	}
	doc.AddChart(title, "Conservative tuning co-executing with a single run (no test runs).", chart)
}

func utilChart(mt MultiTenantResult, pick func(MultiTenantRun) [4]float64) *report.BarChart {
	d, m := pick(mt.Default), pick(mt.Mronline)
	chart := &report.BarChart{YLabel: "utilization (%)", Series: []string{"Default", "MRONLINE"}}
	for i, l := range utilLabels {
		chart.Groups = append(chart.Groups, report.BarGroup{Label: l, Values: []float64{d[i] * 100, m[i] * 100}})
	}
	return chart
}

func printExpedited(w io.Writer, rows []ExpeditedRow) {
	fmt.Fprintf(w, "%-26s %9s %9s %9s %9s %12s\n", "benchmark", "default", "offline", "MRONLINE", "test run", "improvement")
	for _, x := range rows {
		fmt.Fprintf(w, "%-26s %8.0fs %8.0fs %8.0fs %8.0fs %11.0f%%\n",
			x.Bench, x.DefaultDur, x.OfflineDur, x.MronlineDur, x.TestRunDur, 100*x.Improvement())
	}
}

func printSpills(w io.Writer, rows []ExpeditedRow) {
	fmt.Fprintf(w, "%-26s %10s %10s %10s %10s\n", "benchmark", "optimal", "default", "offline", "MRONLINE")
	for _, x := range rows {
		fmt.Fprintf(w, "%-26s %10.2e %10.2e %10.2e %10.2e\n",
			x.Bench, x.OptimalSpills, x.DefaultSpills, x.OfflineSpills, x.MronlineSpills)
	}
}

func printSingleRun(w io.Writer, rows []SingleRunRow) {
	fmt.Fprintf(w, "%-26s %9s %9s %12s\n", "benchmark", "default", "MRONLINE", "improvement")
	for _, x := range rows {
		fmt.Fprintf(w, "%-26s %8.0fs %8.0fs %11.0f%%\n", x.Bench, x.DefaultDur, x.MronlineDur, 100*x.Improvement())
	}
}

// The container kinds of Figs 15 and 16, and each one's memory and CPU
// utilization in one multi-tenant run.
var utilLabels = [4]string{"Terasort-m", "Terasort-r", "BBP-m", "BBP-r"}

func memUtil(m MultiTenantRun) [4]float64 {
	return [4]float64{m.Terasort.MapMemUtil, m.Terasort.ReduceMemUtil, m.BBP.MapMemUtil, m.BBP.ReduceMemUtil}
}

func cpuUtil(m MultiTenantRun) [4]float64 {
	return [4]float64{m.Terasort.MapCPUUtil, m.Terasort.ReduceCPUUtil, m.BBP.MapCPUUtil, m.BBP.ReduceCPUUtil}
}

func printUtil(w io.Writer, mt MultiTenantResult, pick func(MultiTenantRun) [4]float64) {
	def, mro := pick(mt.Default), pick(mt.Mronline)
	fmt.Fprintf(w, "%-12s %9s %9s\n", "container", "default", "MRONLINE")
	for i, l := range utilLabels {
		fmt.Fprintf(w, "%-12s %8.0f%% %8.0f%%\n", l, def[i]*100, mro[i]*100)
	}
}
