package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	wide := metricDef{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25}
	steady := []float64{10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0}
	// drift is a host whose speed wanders by half over the set; the
	// second side of each pair runs 1% faster or slower.
	drift := []float64{6.0, 6.5, 7.0, 9.5, 10.0, 10.4, 9.8, 8.5, 7.7, 7.0}
	jitter := []float64{1.01, 0.99, 1.01, 0.99, 1.01, 0.99, 1.01, 0.99, 1.01, 0.99}
	times := func(a, b []float64) []float64 {
		out := make([]float64, len(a))
		for i := range a {
			out[i] = a[i] * b[i]
		}
		return out
	}
	scale := func(vals []float64, f float64) []float64 {
		out := make([]float64, len(vals))
		for i, v := range vals {
			out[i] = v * f
		}
		return out
	}
	for _, tc := range []struct {
		name       string
		def        metricDef
		base, head []float64
		paired     bool
		want       string
	}{
		{"same runs", lower, steady, steady, false, unchanged},
		{"same code on a drifting host, sets", wide, drift, times(drift, jitter), false, unresolved},
		{"same code on a drifting host, pairs", wide, drift, times(drift, jitter), true, unchanged},
		{"15% slower on a drifting host, sets", wide, drift, scale(times(drift, jitter), 1.15), false, unresolved},
		{"15% slower on a drifting host, pairs", wide, drift, scale(times(drift, jitter), 1.15), true, regressed},
		{"paired runs, every pair won", lower, drift, scale(times(drift, jitter), 0.5), true, improved},
		{"slower past the bound", lower, steady, scale(steady, 1.2), false, regressed},
		{"slower within the bound", lower, steady, scale(steady, 1.05), false, unchanged},
		{"faster, every pair won", lower, steady, scale(steady, 0.95), false, improved},
		{"higher is better, lower head", higher, steady, scale(steady, 0.8), false, regressed},
		{"higher is better, lower head, pairs", higher, steady, scale(steady, 0.8), true, regressed},
		{"higher is better, higher head", higher, steady, scale(steady, 1.05), false, improved},
		{"noisy base", lower, []float64{8, 12, 8, 12, 8, 12, 8, 12, 10, 10}, steady, false, unresolved},
		{"noisy head, every run better", lower, scale(steady, 2), []float64{5, 10, 15, 5, 10, 15, 5, 10, 15, 10}, false, improved},
		{"fewer than ten pairs", lower, steady[:5], scale(steady[:5], 0.5), false, unchanged},
		{"noisy base, every head run better", lower, []float64{10, 10, 10, 10, 30}, []float64{9.5, 9.6, 9.4, 9.5, 9.5}, false, unchanged},
		{"gain within the base's spread", lower,
			[]float64{9.8, 10.2, 9.8, 10.2, 9.8, 10.2, 9.8, 10.2, 10, 10},
			[]float64{9.7, 10.1, 9.7, 10.1, 9.7, 10.1, 9.7, 10.1, 9.9, 9.9}, false, unchanged},
		{"eight of ten pairs won", lower, steady,
			[]float64{9.0, 9.1, 8.9, 9.0, 9.05, 8.95, 9.0, 9.1, 10.5, 10.5}, false, unchanged},
	} {
		got, _ := judge(tc.def, newSeries(tc.def.Unit, tc.base), newSeries(tc.def.Unit, tc.head), tc.paired)
		if got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareReportsExitCode(t *testing.T) {
	mk := func(wall float64, failed int) *report {
		return &report{Workloads: []*workloadResult{{Name: "day", Attempted: 4, Failed: failed, Metrics: map[string]*series{
			"wall_s": newSeries("s", []float64{wall, wall, wall}),
		}}}}
	}
	for _, tc := range []struct {
		name       string
		base, head *report
		paired     bool
		code       int
		want       string
	}{
		{"identical sets", mk(10, 0), mk(10, 0), false, 0, "jobs_per_s  missing on one side"},
		{"slower past the bound", mk(10, 0), mk(13, 0), false, 1, regressed},
		{"slower within the bound", mk(10, 0), mk(11.5, 0), false, 0, unchanged},
		{"slower past the paired bound", mk(10, 0), mk(11.5, 0), true, 1, regressed},
		{"faster head with a failed run", mk(10, 0), mk(5, 1), false, 1, "1 of 4 failed"},
		{"failed base run", mk(10, 2), mk(10, 0), false, 1, failed},
	} {
		var out bytes.Buffer
		code := compareReports(tc.base, tc.head, &out, tc.paired)
		if code != tc.code || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: exit %d, want %d with %q:\n%s", tc.name, code, tc.code, tc.want, out.String())
		}
	}
}
