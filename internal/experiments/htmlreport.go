package experiments

import (
	"fmt"

	"repro/internal/report"
	"repro/internal/workload"
)

// BuildReport runs every artifact and assembles the visual report that
// cmd/mrexperiments -html writes: one chart or table per paper figure,
// in paper order, plus the extension studies.
func (e Env) BuildReport() *report.Document {
	doc := &report.Document{
		Title: "MRONLINE reproduction — results",
		Subtitle: "Every table and figure of 'MRONLINE: MapReduce Online Performance Tuning' " +
			"(HPDC'14), regenerated on the simulated 19-node cluster. Absolute seconds are " +
			"simulator time; shapes are the reproduction target (see EXPERIMENTS.md).",
	}

	// Table 3.
	t3 := &report.Table{Header: []string{"benchmark", "input GB", "shuffle GB (measured)", "output GB (measured)", "maps", "reduces", "type"}}
	for _, r := range e.Table3() {
		t3.Rows = append(t3.Rows, []string{
			r.Bench,
			fmt.Sprintf("%.1f", r.InputMB/1024),
			fmt.Sprintf("%.1f (%.1f)", r.ShuffleMB/1024, r.MeasShuffleMB/1024),
			fmt.Sprintf("%.1f (%.1f)", r.OutputMB/1024, r.MeasOutputMB/1024),
			fmt.Sprintf("%d", r.Maps), fmt.Sprintf("%d", r.Reduces), r.JobType,
		})
	}
	doc.AddTable("Table 3 — benchmark characteristics",
		"Paper volumes with measured values in parentheses.", t3)

	expSeries := []string{"Default", "Offline tuning", "MRONLINE"}
	addExpedited := func(title, caption string, rows []ExpeditedRow) {
		chart := &report.BarChart{YLabel: "job execution time (s)", Series: expSeries}
		spills := &report.BarChart{YLabel: "spilled records", Series: []string{"Optimal", "Default", "Offline", "MRONLINE"}, ValueFormat: "%.2g"}
		for _, r := range rows {
			chart.Groups = append(chart.Groups, report.BarGroup{
				Label: r.Bench, Values: []float64{r.DefaultDur, r.OfflineDur, r.MronlineDur}})
			spills.Groups = append(spills.Groups, report.BarGroup{
				Label: r.Bench, Values: []float64{r.OptimalSpills, r.DefaultSpills, r.OfflineSpills, r.MronlineSpills}})
		}
		doc.AddChart(title, caption, chart)
		doc.AddChart(title+" — spilled records",
			"Optimal is the combiner output record count (Figs 7–9 in the paper).", spills)
	}
	addExpedited("Figure 4 — Terasort, expedited test runs",
		"Aggressive gray-box tuning in one instrumented run, then re-run with the best configuration.",
		e.Fig4())
	addExpedited("Figure 5 — Wikipedia applications, expedited test runs", "", e.Fig5())
	addExpedited("Figure 6 — Freebase applications, expedited test runs", "", e.Fig6())

	addSingle := func(title string, rows []SingleRunRow) {
		chart := &report.BarChart{YLabel: "job execution time (s)", Series: []string{"Default", "MRONLINE"}}
		for _, r := range rows {
			chart.Groups = append(chart.Groups, report.BarGroup{
				Label: r.Bench, Values: []float64{r.DefaultDur, r.MronlineDur}})
		}
		doc.AddChart(title, "Conservative tuning co-executing with a single run (no test runs).", chart)
	}
	addSingle("Figure 10 — Terasort, fast single run", e.Fig10())
	addSingle("Figure 11 — Wikipedia applications, fast single run", e.Fig11())
	addSingle("Figure 12 — Freebase applications, fast single run", e.Fig12())

	sizes := &report.BarChart{YLabel: "job execution time (s)", Series: []string{"Default", "MRONLINE"}}
	for _, r := range e.Fig13() {
		sizes.Groups = append(sizes.Groups, report.BarGroup{
			Label: fmt.Sprintf("%dGB", r.SizeGB), Values: []float64{r.DefaultDur, r.MronlineDur}})
	}
	doc.AddChart("Figure 13 — job-size study",
		"Below ~10 GB the search cannot complete a sampling wave (m=24) and gains vanish.", sizes)

	mt := e.MultiTenant()
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
	util := func(pick func(MultiTenantRun) [4]float64) []report.BarGroup {
		d, m := pick(mt.Default), pick(mt.Mronline)
		labels := [4]string{"Terasort-m", "Terasort-r", "BBP-m", "BBP-r"}
		var out []report.BarGroup
		for i, l := range labels {
			out = append(out, report.BarGroup{Label: l, Values: []float64{d[i] * 100, m[i] * 100}})
		}
		return out
	}
	doc.AddChart("Figure 15 — multi-tenant memory utilization", "",
		&report.BarChart{YLabel: "utilization (%)", Series: []string{"Default", "MRONLINE"},
			Groups: util(func(r MultiTenantRun) [4]float64 {
				return [4]float64{r.Terasort.MapMemUtil, r.Terasort.ReduceMemUtil, r.BBP.MapMemUtil, r.BBP.ReduceMemUtil}
			})})
	doc.AddChart("Figure 16 — multi-tenant CPU utilization", "",
		&report.BarChart{YLabel: "utilization (%)", Series: []string{"Default", "MRONLINE"},
			Groups: util(func(r MultiTenantRun) [4]float64 {
				return [4]float64{r.Terasort.MapCPUUtil, r.Terasort.ReduceCPUUtil, r.BBP.MapCPUUtil, r.BBP.ReduceCPUUtil}
			})})

	tr := e.TestRunCounts(workload.Terasort(20, 0, 0), 4)
	doc.AddChart("Test runs to a tuned configuration (§7)",
		"MRONLINE finishes inside one instrumented run; a Gunther-style GA needs tens.",
		&report.BarChart{YLabel: "test runs", Series: []string{"runs"},
			Groups: []report.BarGroup{
				{Label: tr[0].Approach, Values: []float64{float64(tr[0].Runs)}},
				{Label: tr[1].Approach, Values: []float64{float64(tr[1].Runs)}},
			}})

	hs := e.HotSpotStudy(4)
	doc.AddChart("Extension — hot-spot avoidance",
		"Terasort 20 GB with 4 interfered nodes: blind placement vs utilization-aware placement.",
		&report.BarChart{YLabel: "job execution time (s)", Series: []string{"seconds"},
			Groups: []report.BarGroup{
				{Label: "clean cluster", Values: []float64{hs.CleanDur}},
				{Label: "hot, blind", Values: []float64{hs.DefaultDur}},
				{Label: "hot, avoiding", Values: []float64{hs.AvoidDur}},
			}})

	st := e.StragglerStudy(3)
	doc.AddChart("Extension — straggler mitigation",
		"Interference arrives mid-job: speculation re-runs stragglers elsewhere; replica-aware placement keeps HDFS writes off hot disks.",
		&report.BarChart{YLabel: "job execution time (s)", Series: []string{"seconds"},
			Groups: []report.BarGroup{
				{Label: "none", Values: []float64{st.NoneDur}},
				{Label: "speculation", Values: []float64{st.SpeculationDur}},
				{Label: "hot-spot avoidance", Values: []float64{st.AvoidanceDur}},
				{Label: "both", Values: []float64{st.BothDur}},
			}})

	am := e.Amortization(workload.Terasort(60, 0, 0), 8)
	amChart := &report.BarChart{YLabel: "cumulative time (s)",
		Series: []string{"Default every run", "Test run + knowledge base", "Conservative every run"}}
	for _, r := range am {
		amChart.Groups = append(amChart.Groups, report.BarGroup{
			Label:  fmt.Sprintf("%d", r.Runs),
			Values: []float64{r.CumulativeDefault, r.CumulativeMronline, r.CumulativeConserv},
		})
	}
	doc.AddChart("Extension — knowledge-base amortization (Terasort 60 GB)",
		"The aggressive test run costs more than one default run, then the stored configuration overtakes from the second run on.",
		amChart)

	js := e.JobStream(9, 30)
	doc.AddChart("Extension — multi-job arrival stream",
		"Nine mixed jobs with exponential arrivals under fair share, a conservative tuner attached to each.",
		&report.BarChart{YLabel: "seconds", Series: []string{"Default", "MRONLINE"},
			Groups: []report.BarGroup{
				{Label: "mean completion", Values: []float64{js.MeanDefault, js.MeanMronline}},
				{Label: "makespan", Values: []float64{js.MakespanDefault, js.MakespanMron}},
			}})

	sw := e.SeedSweep(workload.Terasort(60, 0, 0), 5)
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
