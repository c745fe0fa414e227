// Package baseline implements the comparison points of the paper's
// evaluation: the default YARN configuration, a static configuration
// derived from a published offline tuning guide (the "Offline Tuning"
// bars of Figs 4–9), and a Gunther-style genetic-algorithm offline
// tuner used to reproduce the §7 claim that search-based offline
// tuning needs 20–40 test runs where MRONLINE needs one.
package baseline

import (
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/mapreduce"
	"repro/internal/metrics"
	"repro/internal/mrconf"
)

// ProfileStats are the aggregate statistics an offline tuning guide
// asks the operator to collect from profiling runs before applying its
// heuristics.
type ProfileStats struct {
	// MapOutputMBPerTask is the pre-combiner output (what the sort
	// buffer must hold).
	MapOutputMBPerTask   float64
	ReduceInputMBPerTask float64
	MapWorkingSetMB      float64
	ReduceWorkingSetMB   float64
	MapCPUBound          bool
	ShuffleHeavy         bool
}

// ProfileFromResult extracts ProfileStats from a completed profiling
// run (typically under the default configuration).
func ProfileFromResult(res mapreduce.Result) ProfileStats {
	var mapOut, redIn metrics.Sample
	var mapCPU metrics.Sample
	var mapWS, redWS metrics.Sample
	for _, r := range res.Reports {
		if r.OOM {
			continue
		}
		if r.Type == mapreduce.MapTask {
			mapOut.Observe(r.RawOutputMB)
			mapCPU.Observe(r.CPUUtil)
			if w := r.WorkingSetMB(); w > 0 {
				mapWS.Observe(w)
			}
		} else {
			redIn.Observe(r.DataMB)
			if w := r.WorkingSetMB(); w > 0 {
				redWS.Observe(w)
			}
		}
	}
	return ProfileStats{
		MapOutputMBPerTask:   mapOut.Mean(),
		ReduceInputMBPerTask: redIn.Mean(),
		MapWorkingSetMB:      math.Max(60, mapWS.Max()*1.25),
		ReduceWorkingSetMB:   math.Max(120, redWS.Max()*1.25),
		MapCPUBound:          mapCPU.Mean() > 0.9,
		ShuffleHeavy:         redIn.Mean() > 256,
	}
}

// OfflineGuide applies the rule-of-thumb recommendations of vendor
// tuning guides to the profiled statistics: size io.sort.mb to the map
// output (one spill), raise spill.percent when the buffer fits, size
// the reduce shuffle buffer to the reduce input and retain map outputs
// in memory, and raise shuffle parallelism for shuffle-heavy jobs. It
// is a static, job-wide configuration: every task gets the same one.
func OfflineGuide(p ProfileStats) mrconf.Config {
	cfg := mrconf.Default()

	// Map side.
	sortMB := mrconf.IOSortMB.Param().Quantize(p.MapOutputMBPerTask * 1.2)
	cfg = cfg.With(mrconf.IOSortMB, sortMB)
	sortMB = cfg.SortMB()
	mapHeapNeed := mapreduce.JVMBaseMB + sortMB + p.MapWorkingSetMB
	cfg = cfg.With(mrconf.MapMemoryMB, mapHeapNeed*1.1/mrconf.HeapFraction)
	cfg = core.SetSpillPercent(cfg, p.MapOutputMBPerTask)

	// Reduce side.
	redHeapNeed := mapreduce.JVMBaseMB + float64(p.ReduceInputMBPerTask*1.2) + p.ReduceWorkingSetMB
	cfg = cfg.With(mrconf.ReduceMemoryMB, redHeapNeed*1.1/mrconf.HeapFraction)
	cfg = core.SizeShuffleBuffer(cfg, p.ReduceInputMBPerTask, p.ReduceWorkingSetMB)
	cfg = cfg.With(mrconf.ShuffleMemoryLimitPct, 0.5).With(mrconf.MergeInmemThreshold, 0)

	if p.ShuffleHeavy {
		cfg = cfg.With(mrconf.ShuffleParallelCopies, 20)
	}
	if p.MapCPUBound {
		cfg = cfg.With(mrconf.MapCPUVcores, 4)
	}
	return mrconf.Repair(cfg)
}

// Genetic is a Gunther-style offline tuner: a small-population genetic
// algorithm where evaluating one individual costs one full test run of
// the application.
type Genetic struct {
	Population int
	MutateProb float64
	rng        *rand.Rand
	params     []mrconf.Param

	// Evals counts test runs consumed.
	Evals int
	// History records the best cost after each evaluation, for
	// convergence analysis (how many runs until within x% of final).
	History []float64

	best     mrconf.Config
	bestCost float64
}

// NewGenetic builds a GA over all Table 2 parameters.
func NewGenetic(rng *rand.Rand) *Genetic {
	return &Genetic{
		Population: 8,
		MutateProb: 0.2,
		rng:        rng,
		params:     mrconf.Params(),
		bestCost:   math.Inf(1),
	}
}

// Run evolves for the given number of generations, calling eval (one
// test run) per individual, and returns the best configuration found.
// eval scores a trial whose job failed +Inf, so it never becomes the
// best.
func (g *Genetic) Run(eval func(mrconf.Config) float64, generations int) mrconf.Config {
	pop := make([]mrconf.Config, g.Population)
	costs := make([]float64, g.Population)
	for i := range pop {
		pop[i] = g.randomConfig()
		costs[i] = g.measure(pop[i], eval)
	}
	for gen := 0; gen < generations; gen++ {
		next := make([]mrconf.Config, 0, g.Population)
		nextCosts := make([]float64, 0, g.Population)
		// Elitism: keep the best individual.
		bi := argmin(costs)
		next = append(next, pop[bi])
		nextCosts = append(nextCosts, costs[bi])
		for len(next) < g.Population {
			a := g.tournament(pop, costs)
			b := g.tournament(pop, costs)
			child := g.crossover(a, b)
			child = g.mutate(child)
			next = append(next, child)
			nextCosts = append(nextCosts, g.measure(child, eval))
		}
		pop, costs = next, nextCosts
	}
	return g.best
}

// Best returns the best configuration and its cost so far; the cost is
// +Inf while no trial has completed.
func (g *Genetic) Best() (mrconf.Config, float64) { return g.best, g.bestCost }

func (g *Genetic) measure(cfg mrconf.Config, eval func(mrconf.Config) float64) float64 {
	c := eval(cfg)
	g.Evals++
	if c < g.bestCost {
		g.bestCost = c
		g.best = cfg
	}
	g.History = append(g.History, g.bestCost)
	return c
}

func (g *Genetic) randomConfig() mrconf.Config {
	cfg := mrconf.Default()
	for _, p := range g.params {
		cfg = cfg.With(p.ID, p.Min+float64(g.rng.Float64()*(p.Max-p.Min)))
	}
	return mrconf.Repair(cfg)
}

func (g *Genetic) tournament(pop []mrconf.Config, costs []float64) mrconf.Config {
	i := g.rng.Intn(len(pop))
	j := g.rng.Intn(len(pop))
	if costs[i] <= costs[j] {
		return pop[i]
	}
	return pop[j]
}

func (g *Genetic) crossover(a, b mrconf.Config) mrconf.Config {
	cfg := mrconf.Default()
	for _, p := range g.params {
		v := a.Get(p.ID)
		if g.rng.Intn(2) == 1 {
			v = b.Get(p.ID)
		}
		cfg = cfg.With(p.ID, v)
	}
	return mrconf.Repair(cfg)
}

func (g *Genetic) mutate(cfg mrconf.Config) mrconf.Config {
	for _, p := range g.params {
		if g.rng.Float64() < g.MutateProb {
			span := (p.Max - p.Min) * 0.25
			v := cfg.Get(p.ID) + float64((float64(g.rng.Float64())*2-1)*span)
			cfg = cfg.With(p.ID, v)
		}
	}
	return mrconf.Repair(cfg)
}

func argmin(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}
