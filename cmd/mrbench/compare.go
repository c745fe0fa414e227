package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of -compare, checked in this order.
const (
	failed     = "failed"     // a run of either side failed; no metric is judged
	regressed  = "regressed"  // the median is worse by more than the bound
	improved   = "improved"   // see isImproved
	unresolved = "unresolved" // the run-to-run spread exceeds the bound
	unchanged  = "unchanged"
)

// pairedBound caps every bound when the two sides ran in interleaved
// pairs (-base). Each pair's head/base ratio then cancels the host's
// drift, so a change of 10% is resolvable. Sets made apart in time keep
// the wider bounds of endToEnd.
const pairedBound = 0.10

// compareFiles prints one row per (workload, end-to-end metric) of two
// -o files and exits 1 if any run failed or any metric regressed.
func compareFiles(basePath, headPath string, stdout, stderr io.Writer) int {
	base, err := readReport(basePath)
	if err != nil {
		fmt.Fprintln(stderr, "mrbench:", err)
		return 2
	}
	head, err := readReport(headPath)
	if err != nil {
		fmt.Fprintln(stderr, "mrbench:", err)
		return 2
	}
	return compareReports(base, head, stdout, false)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareReports judges every end-to-end metric of head against base;
// paired reports come from runPairs. A workload with a failed run on
// either side is judged failed as a whole: a faster side that fails
// more often has not improved.
func compareReports(base, head *report, w io.Writer, paired bool) int {
	baseBy := map[string]*workloadResult{}
	for _, wr := range base.Workloads {
		baseBy[wr.Name] = wr
	}
	fmt.Fprintf(w, "%-12s %-11s %-34s %-34s %-24s %s\n", "workload", "metric",
		"base median [q1 q3] n", "head median [q1 q3] n", "head/base", "verdict")
	code := 0
	for _, hw := range head.Workloads {
		bw := baseBy[hw.Name]
		if bw != nil {
			v := "ok"
			if bw.Failed > 0 || hw.Failed > 0 {
				v, code = failed, 1
			}
			fmt.Fprintf(w, "%-12s %-11s %-34s %-34s %-24s %s\n", hw.Name, "runs",
				fmt.Sprintf("%d of %d failed", bw.Failed, bw.Attempted),
				fmt.Sprintf("%d of %d failed", hw.Failed, hw.Attempted), "", v)
			if v == failed {
				continue
			}
		}
		for _, d := range endToEnd {
			var bs, hs *series
			if bw != nil {
				bs = bw.Metrics[d.Name]
			}
			hs = hw.Metrics[d.Name]
			if bs == nil || hs == nil {
				fmt.Fprintf(w, "%-12s %-11s missing on one side\n", hw.Name, d.Name)
				continue
			}
			v, ratio := judge(d, bs, hs, paired)
			if v == regressed {
				code = 1
			}
			fmt.Fprintf(w, "%-12s %-11s %-34s %-34s %-24s %s\n", hw.Name, d.Name, describe(bs), describe(hs),
				fmt.Sprintf("%.4f of %.4g %s", ratio, bs.Median, d.Unit), v)
		}
	}
	return code
}

func describe(s *series) string {
	return fmt.Sprintf("%.4g [%.4g %.4g] %d", s.Median, s.Q1, s.Q3, s.N)
}

// judge gives the verdict on one metric and the head/base ratio it
// judged. Worse by more than the bound is a regression whatever the
// spread; a gain must pass isImproved; a spread wider than the bound
// leaves the rest unresolved, unless every head run beats every base
// run. Sets compare their medians and each side's spread. Paired runs
// compare the median and spread of the per-pair ratios, against a bound
// of at most pairedBound.
func judge(d metricDef, base, head *series, paired bool) (verdict string, ratio float64) {
	ratio = head.Median / base.Median
	noisy := base.spread() > d.Bound || head.spread() > d.Bound
	if paired {
		d.Bound = min(d.Bound, pairedBound)
		r := pairRatios(base, head)
		ratio, noisy = r.Median, r.spread() > d.Bound
	}
	worse := ratio - 1
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > d.Bound:
		return regressed, ratio
	case isImproved(d, base, head):
		return improved, ratio
	case noisy && !allBetter(d, base, head):
		return unresolved, ratio
	}
	return unchanged, ratio
}

// pairRatios is head/base for each pair of runs, in order.
func pairRatios(base, head *series) *series {
	n := min(len(base.Values), len(head.Values))
	r := make([]float64, n)
	for i := range r {
		r[i] = head.Values[i] / base.Values[i]
	}
	return newSeries("ratio", r)
}

// minPairs is the fewest run pairs a gain may rest on.
const minPairs = 10

// isImproved applies the repeated-runs rule: at least minPairs runs
// paired in order, the head wins at least nine tenths of the pairs
// (ties win for neither), and the medians differ, in the better
// direction, by more than the base's interquartile range.
func isImproved(d metricDef, base, head *series) bool {
	n := min(len(base.Values), len(head.Values))
	if n < minPairs {
		return false
	}
	wins := 0
	for i := 0; i < n; i++ {
		if better(d, head.Values[i], base.Values[i]) {
			wins++
		}
	}
	return 10*wins >= 9*n && better(d, head.Median, base.Median) &&
		math.Abs(head.Median-base.Median) > base.Q3-base.Q1
}

func allBetter(d metricDef, base, head *series) bool {
	for _, h := range head.Values {
		for _, b := range base.Values {
			if !better(d, h, b) {
				return false
			}
		}
	}
	return len(head.Values) > 0 && len(base.Values) > 0
}

func better(d metricDef, a, b float64) bool {
	if d.Better == "higher" {
		return a > b
	}
	return a < b
}
