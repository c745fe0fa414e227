package main

import (
	"math"
	"sort"
)

// metricDef names one reported number. Bound is the share of the base
// median by which an end-to-end metric may worsen before -compare calls
// it regressed; per-layer metrics have none. BENCHMARK.json at the
// repository root lists the same table (pinned by a test).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the numbers a user of the simulator sees, measured with
// profiling and sinks off. Failed runs are reported as the result's
// attempted/failed counts rather than as a metric, since a healthy
// error rate is zero.
//
// These bounds judge sets made one after the other. On a shared
// two-vCPU host the wall time of identical work drifts by up to a third
// over tens of minutes, so host-time bounds are 25%; peak RSS barely
// moves and keeps 10%. Interleaved pairs (-base) are judged against
// pairedBound instead.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "max_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.10},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// layers are the repro/internal packages CPU profile samples are
// attributed to; "gc" takes samples with no repository frame at all.
var layers = []string{"sim", "cluster", "yarn", "hdfs", "mapreduce", "core",
	"tuner", "mrconf", "metrics", "trace", "faults", "workload", "experiments"}

const gcLayer = "gc"

// perLayer are the traced run's numbers. A metric the workload cannot
// produce (a sink count in cell mode, say) reads 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range append(append([]string{}, layers...), gcLayer) {
		defs = append(defs, metricDef{Name: l + ".self_s", Unit: "s", Better: "lower"})
	}
	return append(defs, []metricDef{
		{Name: "sim.events", Unit: "count", Better: "lower"},
		{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
		{Name: "trace.sink_events", Unit: "count", Better: "lower"},
		{Name: "sim.pool_speedup", Unit: "x", Better: "higher"},
		{Name: "sim.cpu_util", Unit: "ratio", Better: "higher"},
		{Name: "runtime.alloc_mb", Unit: "MiB", Better: "lower"},
		{Name: "runtime.mallocs", Unit: "count", Better: "lower"},
		{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
		{Name: "yarn.containers", Unit: "count", Better: "lower"},
		{Name: "mapreduce.useful_attempt_ratio", Unit: "ratio", Better: "higher"},
		{Name: "mapreduce.task_failed", Unit: "count", Better: "lower"},
		{Name: "mapreduce.task_oom", Unit: "count", Better: "lower"},
		{Name: "mapreduce.task_killed", Unit: "count", Better: "lower"},
		{Name: "mapreduce.fetch_fail", Unit: "count", Better: "lower"},
		{Name: "mapreduce.reexec_map", Unit: "count", Better: "lower"},
		{Name: "faults.node_down", Unit: "count", Better: "lower"},
		{Name: "model.mean_job_s", Unit: "sim_s", Better: "lower"},
		{Name: "model.makespan_s", Unit: "sim_s", Better: "lower"},
		{Name: "model.expedited_imp_pct", Unit: "%", Better: "higher"},
		{Name: "model.singlerun_imp_pct", Unit: "%", Better: "higher"},
		{Name: "bench.trace_overhead", Unit: "ratio", Better: "lower"},
	}...)
}()

var allMetrics = append(append([]metricDef{}, endToEnd...), perLayer...)

// series is every value one metric took over a set of runs, with the
// summary statistics the driver and -compare read.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
}

func newSeries(unit string, values []float64) *series {
	s := &series{Unit: unit, Values: values, N: len(values)}
	s.Q1, s.Median, s.Q3 = quartiles(values)
	return s
}

// quartiles returns the first quartile, median and third quartile of
// values, matching Python's statistics.quantiles(values, n=4) (the
// "exclusive" method) so they agree with external tooling. Fewer than
// two values give the single value (or 0) three times.
func quartiles(values []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), median(d), q(3)
}

// median of an already sorted slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// spread is the interquartile range as a share of the median.
func (s *series) spread() float64 {
	if s.Median == 0 {
		return math.Inf(1)
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}
