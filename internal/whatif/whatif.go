// Package whatif answers what-if questions about the category-1
// parameters MRONLINE cannot tune online — the number of reducers and
// the reduce slowstart fraction are fixed once a job starts (paper
// §2.2). The paper defers these to simulation tools such as MRPerf
// ("remains a focus of our on-going research"); this package is that
// extension: it replays the job on the calibrated discrete-event
// simulator under candidate settings and recommends the best.
package whatif

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/experiments"
	"repro/internal/mapreduce"
	"repro/internal/mrconf"
	"repro/internal/workload"
)

// Question describes the sweep: a benchmark (profile + data volumes),
// the configuration the job will run with, and the candidate values.
// Zero-value candidate slices get sensible defaults.
type Question struct {
	Benchmark workload.Benchmark
	Config    mrconf.Config
	// ReduceCounts are the candidate reducer counts, none negative;
	// default: a geometric ladder around the benchmark's current value.
	ReduceCounts []int
	// Slowstarts are candidate slowstart fractions, each in (0, 1];
	// default: {0.05, 0.3, 0.6, 0.9}.
	Slowstarts []float64
	// Seed drives the simulation.
	Seed uint64
}

// Prediction is one evaluated point of the sweep.
type Prediction struct {
	NumReduces    int
	Slowstart     float64
	PredictedSecs float64
}

func (p Prediction) String() string {
	return fmt.Sprintf("reduces=%d slowstart=%.2f -> %.0fs", p.NumReduces, p.Slowstart, p.PredictedSecs)
}

func (q Question) withDefaults() Question {
	out := q
	if len(out.ReduceCounts) == 0 {
		base := out.Benchmark.NumReduces
		if base < 1 {
			base = 1
		}
		seen := map[int]bool{}
		for _, mult := range []float64{0.25, 0.5, 1, 2, 4} {
			n := int(float64(base) * mult)
			if n < 1 {
				n = 1
			}
			if !seen[n] {
				seen[n] = true
				out.ReduceCounts = append(out.ReduceCounts, n)
			}
		}
	}
	if len(out.Slowstarts) == 0 {
		out.Slowstarts = []float64{0.05, 0.3, 0.6, 0.9}
	}
	if out.Seed == 0 {
		out.Seed = 42
	}
	return out
}

// validate reports the first candidate the simulator cannot run as
// labelled: a negative reducer count, or a slowstart that is not a
// fraction in (0, 1].
func (q Question) validate() error {
	for _, nr := range q.ReduceCounts {
		if nr < 0 {
			return fmt.Errorf("whatif: reduce count %d is negative", nr)
		}
	}
	for _, ss := range q.Slowstarts {
		if math.IsNaN(ss) || ss <= 0 || ss > 1 {
			return fmt.Errorf("whatif: slowstart %v is not in (0, 1]", ss)
		}
	}
	return nil
}

// Explore runs the full sweep and returns predictions sorted by
// predicted job time (fastest first). It returns an error, and runs
// nothing, when a candidate is invalid.
func Explore(q Question) ([]Prediction, error) {
	q = q.withDefaults()
	if err := q.validate(); err != nil {
		return nil, err
	}
	var out []Prediction
	for _, nr := range q.ReduceCounts {
		for _, ss := range q.Slowstarts {
			out = append(out, Prediction{
				NumReduces:    nr,
				Slowstart:     ss,
				PredictedSecs: simulate(q, nr, ss),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].PredictedSecs != out[j].PredictedSecs {
			return out[i].PredictedSecs < out[j].PredictedSecs
		}
		if out[i].NumReduces != out[j].NumReduces {
			return out[i].NumReduces < out[j].NumReduces
		}
		return out[i].Slowstart < out[j].Slowstart
	})
	return out, nil
}

// Recommend returns the best point of the sweep, or Explore's error.
func Recommend(q Question) (Prediction, error) {
	preds, err := Explore(q)
	if err != nil {
		return Prediction{}, err
	}
	return preds[0], nil
}

// simulate runs one what-if configuration on a fresh testbed.
func simulate(q Question, numReduces int, slowstart float64) float64 {
	b := q.Benchmark
	b.NumReduces = numReduces
	res := experiments.Env{Seed: q.Seed}.RunSpec(mapreduce.Spec{
		Name:              fmt.Sprintf("whatif-%s-r%d-s%02.0f", b.Name, numReduces, slowstart*100),
		Benchmark:         b,
		BaseConfig:        q.Config,
		SlowstartFraction: slowstart,
	})
	if res.Failed {
		return res.Duration * 10 // penalize infeasible settings
	}
	return res.Duration
}

// CalibrateFromRun adjusts a benchmark's data-flow profile to match an
// observed run, so what-if analysis of a real job uses measured (not
// assumed) selectivities — the gray-box path: observe once, then ask
// what-if questions offline.
func CalibrateFromRun(b workload.Benchmark, res mapreduce.Result) workload.Benchmark {
	out := b
	c := res.Counters
	if c.MapInputMB > 0 && c.MapOutputMB > 0 {
		// Effective post-combiner selectivity from the run.
		sel := c.MapOutputMB / c.MapInputMB
		if out.Profile.CombinerReduction > 0 {
			out.Profile.RawMapSelectivity = sel / out.Profile.CombinerReduction
		}
		out.ShuffleSizeMB = out.InputSizeMB * sel
	}
	if c.ReduceInputMB > 0 {
		out.Profile.ReduceSelectivity = c.OutputMB / c.ReduceInputMB
		out.OutputSizeMB = out.ShuffleSizeMB * out.Profile.ReduceSelectivity
	}
	return out
}
