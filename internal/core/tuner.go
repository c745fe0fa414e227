package core

import (
	"math"
	"math/rand"

	"repro/internal/lhs"
	"repro/internal/mapreduce"
	"repro/internal/metrics"
	"repro/internal/mrconf"
	"repro/internal/sim"
	"repro/internal/tuner"
)

// Strategy selects between the paper's two use cases (§2.3).
type Strategy int

const (
	// Aggressive tuning (expedited test runs): systematic gray-box hill
	// climbing with LHS, holding task waves to measure each sampled
	// configuration; the goal is the best configuration for future runs.
	Aggressive Strategy = iota + 1
	// Conservative tuning (fast single run): rule-driven adjustments
	// from observed statistics that never interrupt scheduling; the
	// goal is to speed up the current run.
	Conservative
)

func (s Strategy) String() string {
	if s == Aggressive {
		return "aggressive"
	}
	return "conservative"
}

// searchDims returns the hill-climbed parameters per scope. In
// gray-box mode the remaining Table 2 parameters are set by the §6
// rules at materialization time (spill.percent, merge.percent,
// inmem.threshold, input.buffer.percent,
// shuffle.input.buffer.percent), which shrinks the LHS space and
// speeds convergence — the paper's motivation for combining rules
// with the search. Black-box mode (the smart-hill-climbing baseline
// the paper builds on) searches the full scope instead.
func searchDims(scope mrconf.Scope, blackBox bool) []mrconf.Param {
	if blackBox {
		return mrconf.ParamsByScope(scope)
	}
	var ids []mrconf.ParamID
	if scope == mrconf.ScopeMap {
		ids = []mrconf.ParamID{mrconf.MapMemoryMB, mrconf.IOSortMB, mrconf.MapCPUVcores, mrconf.IOSortFactor}
	} else {
		ids = []mrconf.ParamID{mrconf.ReduceMemoryMB, mrconf.ShuffleMemoryLimitPct, mrconf.ReduceCPUVcores, mrconf.ShuffleParallelCopies}
	}
	out := make([]mrconf.Param, len(ids))
	for i, id := range ids {
		out[i] = id.Param()
	}
	return out
}

// Tuner is the MRONLINE online tuner for one job: it implements
// mapreduce.Controller, so attaching it to a job submission is all
// that is needed ("a performance boost can be achieved by simply
// co-executing MRONLINE with target applications").
type Tuner struct {
	Strategy Strategy

	mon  *Monitor
	base mrconf.Config

	jobName  string
	blackBox bool
	costW    CostWeights
	search   tuner.SearchParams
	backend  string

	// aggressive state
	mapS scopeSearch
	redS scopeSearch

	// conservative state
	cons consState
}

// scopeSearch is one scope's (map or reduce) slice of the aggressive
// search: the searched dimensions, the optimizer backend walking them,
// the points in flight, and the wave buffer the §6.2 gray-box rules
// read at wave boundaries.
type scopeSearch struct {
	dims []mrconf.Param
	opt  tuner.Optimizer
	// points[id] is the sampled point task id runs until it reports,
	// nil when the task holds none.
	points  [][]float64
	waveBuf []mapreduce.TaskReport
	// waves counts wave boundaries this driver observed (differs from
	// opt.Waves only when a wave completes with no assignment routed
	// through this tuner).
	waves int
}

// assignment is a set of explicitly assigned parameter values, dense by
// ParamID. Unlike a Config it remembers which keys were set, so an
// explicit value equal to the default still overrides a non-default
// base value.
type assignment struct {
	set [mrconf.NumParams]bool
	v   [mrconf.NumParams]float64
}

// put assigns a parameter.
func (a *assignment) put(id mrconf.ParamID, v float64) {
	a.set[id], a.v[id] = true, v
}

// applyTo returns cfg with every assigned value set, in registry order.
func (a *assignment) applyTo(cfg mrconf.Config) mrconf.Config {
	return cfg.WithIDs(&a.set, &a.v)
}

type consState struct {
	mapOverrides assignment
	redOverrides assignment

	mapVcores     int
	mapVcoreDur   float64 // mean map duration at the previous vcore level
	mapVcoreStop  bool
	redVcores     int
	redVcoreDur   float64
	redVcoreStop  bool
	parCopies     int
	parCopiesDur  float64
	parCopiesStop bool
	sortFactorSet bool

	lastMapRecalc int
	lastRedRecalc int
}

// TunerOptions configure a Tuner.
type TunerOptions struct {
	Strategy Strategy
	Search   tuner.SearchParams
	Seed     uint64
	// BlackBox disables the gray-box extensions (§5/§6): no rule-set
	// parameters, no observation-driven bound tightening — pure smart
	// hill climbing over all 13 parameters, the baseline the paper
	// improves upon. Used by the ablation benchmarks.
	BlackBox bool
	// CostWeights scale the Eq. 1 terms; zero value means UnitWeights.
	CostWeights CostWeights
	// Backend names the optimizer backend driving the aggressive
	// search: "hill" (default, the paper's Algorithm 1), "spsa", or
	// "tpe" — any name in tuner.Backends(). The hill backend draws from
	// the tuner's legacy shared RNG stream so existing experiment
	// output stays byte-identical; other backends draw from dedicated
	// sim.Source sub-streams ("tuner/<backend>").
	Backend string
	// Warm, when non-nil, warm-starts each scope that has a best point
	// from a previous same-class job's knowledge-base entry: the
	// backend begins in its refinement phase around the stored best and
	// issues strictly fewer test waves than a cold search.
	Warm *Entry
}

// NewTuner builds a tuner for a job with the given task counts. base
// is the configuration the job would otherwise run with.
func NewTuner(jobName string, numMaps, numReduces int, base mrconf.Config, opts TunerOptions) *Tuner {
	if opts.Strategy == 0 {
		opts.Strategy = Conservative
	}
	if opts.Search.M == 0 {
		opts.Search = tuner.DefaultSearchParams()
	}
	if opts.Backend == "" {
		opts.Backend = "hill"
	}
	if opts.CostWeights == (CostWeights{}) {
		opts.CostWeights = UnitWeights
	}
	t := &Tuner{
		Strategy: opts.Strategy,
		mon:      NewMonitor(numMaps, numReduces),
		base:     base,
		jobName:  jobName,
		blackBox: opts.BlackBox,
		costW:    opts.CostWeights,
		search:   opts.Search,
		backend:  opts.Backend,
	}
	if t.Strategy == Aggressive {
		// The hill backend shares the legacy RNG stream between both
		// scopes (map scope constructed first) — the exact pre-refactor
		// draw sequence, pinned by the figure pipeline's byte-identity
		// contract. Other backends get independent named sub-streams.
		rng := rand.New(rand.NewSource(int64(opts.Seed) ^ 0x6d726f6e6c696e65))
		mapRNG, redRNG := rng, rng
		if opts.Backend != "hill" {
			src := sim.NewSource(opts.Seed).Sub("tuner").Sub(opts.Backend)
			mapRNG, redRNG = src.Stream("map"), src.Stream("reduce")
		}
		t.mapS = t.newSearch(mrconf.ScopeMap, numMaps, mapRNG, warmScope(opts.Warm, mrconf.ScopeMap))
		t.redS = t.newSearch(mrconf.ScopeReduce, numReduces, redRNG, warmScope(opts.Warm, mrconf.ScopeReduce))
	} else {
		t.cons.mapVcores = base.MapVcores()
		t.cons.redVcores = base.ReduceVcores()
		t.cons.parCopies = base.ParallelCopies()
	}
	return t
}

// newSearch builds one scope's optimizer from the backend table, with
// a point slot for each of the scope's tasks. Both the gray-box and the
// black-box parameter spaces route through the same path — the search
// plumbing no longer cares which.
func (t *Tuner) newSearch(scope mrconf.Scope, tasks int, rng *rand.Rand, warm *tuner.ScopeState) scopeSearch {
	dims := searchDims(scope, t.blackBox)
	opt, err := tuner.New(t.backend, tuner.Options{Params: dims, RNG: rng, Search: t.search, Warm: warm})
	if err != nil {
		panic(err) // CLI flags validate backend names before building a Tuner
	}
	return scopeSearch{dims: dims, opt: opt, points: make([][]float64, tasks)}
}

// warmScope extracts one scope's usable warm-start state from a
// knowledge-base entry, or nil.
func warmScope(e *Entry, scope mrconf.Scope) *tuner.ScopeState {
	if e == nil {
		return nil
	}
	s := e.Map
	if scope == mrconf.ScopeReduce {
		s = e.Reduce
	}
	if !s.HaveBest {
		return nil
	}
	return &s
}

func (t *Tuner) searchFor(tt mapreduce.TaskType) *scopeSearch {
	if tt == mapreduce.MapTask {
		return &t.mapS
	}
	return &t.redS
}

// ---------- mapreduce.Controller implementation ----------

// AllowLaunch implements the wave hold-off of aggressive tuning: no
// new task launches while the current wave is fully assigned but not
// yet measured. Conservative tuning never interferes with scheduling.
func (t *Tuner) AllowLaunch(task *mapreduce.Task) bool {
	if t.Strategy != Aggressive {
		return true
	}
	s := t.searchFor(task.Type)
	if s.points[task.ID] != nil {
		// The task already holds a sampled point (its first launch was
		// deferred, e.g. by the reduce headroom policy); let it through.
		return true
	}
	return s.opt.Done() || s.opt.HasPending()
}

// TaskConfig hands each task its configuration: the next LHS sample
// under aggressive tuning, the current rule-tuned configuration under
// conservative tuning.
func (t *Tuner) TaskConfig(task *mapreduce.Task, base mrconf.Config) mrconf.Config {
	if task.Attempt >= 2 {
		// Two straight OOM kills: stop experimenting on this task and
		// fall back to the job's base configuration, which is known to
		// be feasible (the job ran under it before tuning).
		return base
	}
	if t.Strategy == Aggressive {
		s := t.searchFor(task.Type)
		if task.Attempt == 0 {
			// A task that still holds its point (deferred launch) is
			// idempotently handed the same configuration again.
			point := s.points[task.ID]
			if point == nil && !s.opt.Done() {
				point = s.opt.Next()
				s.points[task.ID] = point
			}
			if point != nil {
				return t.materialize(tuner.ApplyPoint(t.base, s.dims, point), task.Type)
			}
		}
		// Search finished (or a retry): use the best configuration.
		return t.materialize(t.bestSoFar(task.Type), task.Type)
	}
	// Conservative: job-wide rule overrides.
	overrides := &t.cons.mapOverrides
	if task.Type == mapreduce.ReduceTask {
		overrides = &t.cons.redOverrides
	}
	return t.materialize(overrides.applyTo(t.base), task.Type)
}

// LiveConfig re-applies the live (category 3) rules just before the
// task's spill decisions, letting spill.percent and the in-memory
// merge threshold move for already-launched tasks.
func (t *Tuner) LiveConfig(task *mapreduce.Task, current mrconf.Config) mrconf.Config {
	return t.materialize(current, task.Type)
}

// TaskCompleted ingests monitor data and advances the search.
func (t *Tuner) TaskCompleted(r mapreduce.TaskReport) {
	t.mon.Observe(r)
	if t.Strategy == Aggressive {
		t.aggressiveObserve(r)
		return
	}
	t.conservativeObserve(r)
}

// ---------- aggressive strategy ----------

func (t *Tuner) aggressiveObserve(r mapreduce.TaskReport) {
	s := t.searchFor(r.Type)
	point := s.points[r.ID]
	if point == nil {
		return
	}
	s.points[r.ID] = nil
	scope := mrconf.ScopeMap
	if r.Type != mapreduce.MapTask {
		scope = mrconf.ScopeReduce
	}
	prevWaves := s.opt.Waves()
	s.opt.Report(point, WeightedCost(r, t.mon.TMax(r.Type), t.costW))
	s.waveBuf = append(s.waveBuf, r)
	if s.opt.Waves() != prevWaves {
		t.applyGrayBoxRules(s, s.waveBuf, scope)
		// The rules keep nothing of the wave, so the buffer starts the
		// next one with its capacity.
		clear(s.waveBuf)
		s.waveBuf = s.waveBuf[:0]
		s.waves++
	}
}

// applyGrayBoxRules narrows the search bounds from the completed
// wave's observations (§6.2): memory bounds chase the 80th percentile
// of sampled values on over/under-utilization, and io.sort.mb bounds
// chase the spill ratio. Every backend takes the rules; one without a
// stratified sampler ignores the bias.
func (t *Tuner) applyGrayBoxRules(sc *scopeSearch, wave []mapreduce.TaskReport, scope mrconf.Scope) {
	if len(wave) == 0 || t.blackBox {
		return
	}
	s := sc.opt
	memParam := mrconf.MapMemoryMB
	if scope == mrconf.ScopeReduce {
		memParam = mrconf.ReduceMemoryMB
	}
	var memVals, sortVals []float64
	var memUtil metrics.Sample
	var spillRatio metrics.Sample
	for _, r := range wave {
		memVals = append(memVals, r.Config.Get(memParam))
		memUtil.Observe(r.MemUtil)
		if scope == mrconf.ScopeMap {
			sortVals = append(sortVals, r.Config.SortMB())
			if r.OutputRecords > 0 {
				spillRatio.Observe(r.SpilledRecords / r.OutputRecords)
			}
		}
	}
	lo, hi := s.Bounds(memParam)
	p80 := metrics.Percentile(memVals, 80)
	switch {
	case memUtil.Mean() > 0.9:
		// Over-utilization risk: raise the lower bound (§6.2) and bias
		// the weighted LHS toward larger values ("tries the higher
		// value with a higher probability").
		s.Tighten(memParam, math.Max(lo, p80), hi)
		s.Bias(memParam, lhs.Weights{1, 1, 2, 3})
	case memUtil.Mean() < 0.5:
		// Under-utilization: pull the upper bound down and bias the
		// sampling toward smaller values.
		s.Tighten(memParam, lo, math.Min(hi, p80))
		s.Bias(memParam, lhs.Weights{3, 2, 1, 1})
	default:
		s.Bias(memParam, nil) // in band: uniform again
	}
	if scope == mrconf.ScopeMap && spillRatio.N() > 0 {
		lo, hi := s.Bounds(mrconf.IOSortMB)
		p80 := metrics.Percentile(sortVals, 80)
		if spillRatio.Mean() > 1.05 {
			// Buffers too small to hold the map output: spills beyond
			// the final one observed.
			s.Tighten(mrconf.IOSortMB, math.Max(lo, p80), hi)
		} else {
			// Single-spill achieved: shrink the upper bound toward the
			// sampled values, but never below what actually holds the
			// raw map output — otherwise the bound ratchets past the
			// point where spilling resumes.
			newHi := math.Min(hi, p80)
			if est, ok := t.mon.EstMapRawOutputMB(); ok {
				newHi = math.Max(newHi, est*1.1)
			}
			s.Tighten(mrconf.IOSortMB, math.Min(lo, newHi), newHi)
		}
	}

	// Requirement-driven ceilings ("adjusting containers to meet the
	// task requirements", §6): once the monitor can estimate the data
	// volumes, memory beyond what the task can use only reduces
	// cluster utilization, so the upper bounds come down to the
	// estimated need plus margin.
	if scope == mrconf.ScopeMap {
		if est, ok := t.mon.EstMapRawOutputMB(); ok {
			lo, hi := s.Bounds(mrconf.IOSortMB)
			sortCap := math.Min(hi, math.Max(est*1.5, 60))
			s.Tighten(mrconf.IOSortMB, math.Min(lo, sortCap), sortCap)
			need := (mapreduce.JVMBaseMB + math.Min(est*1.3, sortCap) + t.mapWorkingSetReserve(false)) / mrconf.HeapFraction
			lo, hi = s.Bounds(mrconf.MapMemoryMB)
			memCap := math.Min(hi, math.Max(need, 512))
			s.Tighten(mrconf.MapMemoryMB, math.Min(lo, memCap), memCap)
		}
	} else if est, ok := t.mon.EstReduceInputMB(); ok {
		need := (mapreduce.JVMBaseMB + float64(est*1.3) + t.reduceWorkingSetReserve(false)) / mrconf.HeapFraction
		lo, hi := s.Bounds(mrconf.ReduceMemoryMB)
		memCap := math.Min(hi, math.Max(need, 512))
		s.Tighten(mrconf.ReduceMemoryMB, math.Min(lo, memCap), memCap)
	}
}

// bestSoFar renders the current best sampled point (or the base
// config before any wave finished) for one scope.
func (t *Tuner) bestSoFar(tt mapreduce.TaskType) mrconf.Config {
	return withBest(t.base, t.searchFor(tt))
}

// withBest applies one scope's best point so far onto cfg, if it has
// one.
func withBest(cfg mrconf.Config, s *scopeSearch) mrconf.Config {
	if point, _, ok := s.opt.Best(); ok {
		cfg = tuner.ApplyPoint(cfg, s.dims, point)
	}
	return cfg
}

// BestConfig returns the tuner's final recommendation: both scopes'
// best points plus the rule-derived parameters — what the expedited
// test run stores in the knowledge base for future runs.
func (t *Tuner) BestConfig() mrconf.Config {
	var cfg mrconf.Config
	if t.Strategy == Aggressive {
		cfg = withBest(withBest(t.base, &t.mapS), &t.redS)
	} else {
		cfg = t.cons.redOverrides.applyTo(t.cons.mapOverrides.applyTo(t.base))
	}
	// The recommendation runs standalone: use worst-case reserves and
	// grow the containers to hold them (the search explored with lean
	// reserves; a static config must survive the skew tail).
	mapNeed := (mapreduce.JVMBaseMB + cfg.SortMB() + t.mapWorkingSetReserve(true)) / mrconf.HeapFraction
	if cfg.MapMemMB() < mapNeed {
		cfg = cfg.With(mrconf.MapMemoryMB, mapNeed)
	}
	redNeed := (mapreduce.JVMBaseMB + float64(cfg.ShuffleBufferPct()*cfg.ReduceHeapMB()) + t.reduceWorkingSetReserve(true)) / mrconf.HeapFraction
	if cfg.ReduceMemMB() < redNeed {
		cfg = cfg.With(mrconf.ReduceMemoryMB, redNeed)
	}
	cfg = t.materializeWith(t.materializeWith(cfg, mapreduce.MapTask, true), mapreduce.ReduceTask, true)
	return mrconf.Repair(cfg)
}

// ExportWarm snapshots both scopes' search states as a knowledge-base
// entry, the warm start for the class's next test run. Only meaningful
// for aggressive tuners.
func (t *Tuner) ExportWarm() Entry {
	if t.Strategy != Aggressive {
		return Entry{}
	}
	return Entry{Map: t.mapS.opt.Export(), Reduce: t.redS.opt.Export()}
}

// TestWaves returns the completed search wave counts per scope — the
// per-job cost a warm start is meant to shrink.
func (t *Tuner) TestWaves() (mapWaves, redWaves int) {
	if t.Strategy != Aggressive {
		return 0, 0
	}
	return t.mapS.opt.Waves(), t.redS.opt.Waves()
}

// Trajectories returns both scopes' best-cost-so-far series (one entry
// per completed evaluation) — the convergence curves the tournament
// experiment compares across backends.
func (t *Tuner) Trajectories() (mapTraj, redTraj []float64) {
	if t.Strategy != Aggressive {
		return nil, nil
	}
	return t.mapS.opt.Trajectory(), t.redS.opt.Trajectory()
}

// ---------- rule materialization (§6) ----------

// materialize applies the deterministic tuning rules for the
// parameters not in the search space, using the monitor's estimates.
func (t *Tuner) materialize(cfg mrconf.Config, tt mapreduce.TaskType) mrconf.Config {
	return t.materializeWith(cfg, tt, false)
}

// materializeWith applies the §6 rules; safe=true uses worst-case
// working-set reserves (for the final recommendation, which runs
// without an adaptive controller).
func (t *Tuner) materializeWith(cfg mrconf.Config, tt mapreduce.TaskType, safe bool) mrconf.Config {
	if t.blackBox {
		// Pure black box: the sampled point is the whole configuration.
		return mrconf.Repair(cfg)
	}
	if tt == mapreduce.MapTask {
		// Feasibility: the heap must hold the JVM base, the sort buffer,
		// and the map working set; clamp io.sort.mb below that line so
		// a best point assembled from different waves cannot OOM.
		maxSort := cfg.MapHeapMB() - mapreduce.JVMBaseMB - t.mapWorkingSetReserve(safe)
		if cfg.SortMB() > maxSort {
			cfg = cfg.With(mrconf.IOSortMB, math.Max(50, maxSort-10))
		}
		if est, ok := t.mon.EstMapRawOutputMB(); ok {
			cfg = SetSpillPercent(cfg, est)
		}
		return mrconf.Repair(cfg)
	}
	// Reduce-side buffer rules, applied with one copy of the config.
	var a assignment
	a.put(mrconf.MergeInmemThreshold, 0) // merge on memory consumption only
	if est, ok := t.mon.EstReduceInputMB(); ok {
		a.sizeShuffleBuffer(cfg, est, t.reduceWorkingSetReserve(safe))
	}
	return mrconf.Repair(a.applyTo(cfg))
}

// SetSpillPercent applies the §6.2 spill rule for a map task whose raw
// (pre-combiner) output is rawOutputMB: spill.percent is 0.99 when the
// sort buffer holds the whole output in one spill, otherwise the
// default.
func SetSpillPercent(cfg mrconf.Config, rawOutputMB float64) mrconf.Config {
	if cfg.SortMB() >= rawOutputMB*1.05 {
		return cfg.With(mrconf.SortSpillPercent, 0.99)
	}
	return cfg.With(mrconf.SortSpillPercent, mrconf.SortSpillPercent.Param().Default)
}

// SizeShuffleBuffer applies the §6.2 reduce buffer rules for a reducer
// expecting inputMB of shuffle input and needing workingSetMB of heap
// for its user code. The shuffle buffer is sized to the input, but
// never so large that the JVM base and the working set cannot fit next
// to it (that would guarantee an OOM kill). When the input fits, it is
// retained through the reduce phase and merged at the full buffer.
func SizeShuffleBuffer(cfg mrconf.Config, inputMB, workingSetMB float64) mrconf.Config {
	var a assignment
	a.sizeShuffleBuffer(cfg, inputMB, workingSetMB)
	return a.applyTo(cfg)
}

// sizeShuffleBuffer assigns SizeShuffleBuffer's three buffer values
// for a reducer on cfg's heap. They do not depend on one another's
// assignment, so applying them together equals applying them in turn.
func (a *assignment) sizeShuffleBuffer(cfg mrconf.Config, inputMB, workingSetMB float64) {
	heap := cfg.ReduceHeapMB() // positive: reduce memory is at least 512 MB
	sbpMax := (heap - mapreduce.JVMBaseMB - workingSetMB) / heap
	sbp := metrics.Clamp(inputMB*1.15/heap, 0.2, math.Min(0.9, sbpMax))
	a.put(mrconf.ShuffleInputBufferPct, sbp)
	sbp = mrconf.ShuffleInputBufferPct.Param().Quantize(sbp) // the value the config will hold
	if sbp*heap >= inputMB {
		a.put(mrconf.ReduceInputBufferPct, sbp)
		a.put(mrconf.ShuffleMergePct, sbp)
		return
	}
	a.put(mrconf.ReduceInputBufferPct, math.Max(0, sbp-0.1))
	a.put(mrconf.ShuffleMergePct, math.Max(0.2, sbp-0.04))
}

// reduceWorkingSetReserve estimates how much heap the reduce user code
// needs beside the shuffle buffer: the 80th percentile of observed
// working sets, or a conservative prior before any reducer finished.
func (t *Tuner) reduceWorkingSetReserve(safe bool) float64 {
	ws := t.mon.ReduceWorkingSet()
	if ws.N() == 0 {
		return 350 // prior: fits every profile in the benchmark suite
	}
	if safe {
		// Final recommendations run without an adaptive controller, so
		// they must survive the skew tail.
		return math.Max(120, ws.Max()*1.3)
	}
	// Exploration: p95 with margin. Reserving for the lognormal max
	// squeezes the buffers out entirely; the occasional straggler OOM
	// during the test run is handled by the retry path and the cost
	// penalty.
	return math.Max(120, ws.Percentile(95)*1.15)
}

// mapWorkingSetReserve mirrors reduceWorkingSetReserve for the map
// side (heap beside the sort buffer).
func (t *Tuner) mapWorkingSetReserve(safe bool) float64 {
	ws := t.mon.MapWorkingSet()
	if ws.N() == 0 {
		return 120
	}
	if safe {
		return math.Max(60, ws.Max()*1.3)
	}
	return math.Max(60, ws.Percentile(95)*1.15)
}

// ---------- conservative strategy (§6.1 fast single run) ----------

// conservativeWave is how many fresh reports trigger a rule recompute.
const conservativeWave = 5

func (t *Tuner) conservativeObserve(r mapreduce.TaskReport) {
	if r.Type == mapreduce.MapTask {
		if t.mon.Completed(mapreduce.MapTask)-t.cons.lastMapRecalc >= conservativeWave {
			t.cons.lastMapRecalc = t.mon.Completed(mapreduce.MapTask)
			t.recalcConservativeMap()
		}
		return
	}
	if t.mon.Completed(mapreduce.ReduceTask)-t.cons.lastRedRecalc >= conservativeWave {
		t.cons.lastRedRecalc = t.mon.Completed(mapreduce.ReduceTask)
		t.recalcConservativeReduce()
	}
}

// recalcConservativeMap re-derives the map-side overrides from
// observed statistics: io.sort.mb sized to the map output, container
// memory sized to actual peak usage plus margin, vcores escalated
// while CPU-saturated and still improving.
func (t *Tuner) recalcConservativeMap() {
	est, ok := t.mon.EstMapRawOutputMB()
	if !ok {
		return
	}
	o := &t.cons.mapOverrides

	sortMB := mrconf.IOSortMB.Param().Quantize(est * 1.1)
	o.put(mrconf.IOSortMB, sortMB)

	// Estimate the user-code working set from observed peaks: peak
	// resident = (JVMBase + sortMB + ws) / heapFraction under the
	// configuration those tasks ran with.
	wsMB := math.Max(50, t.mon.MapWorkingSet().Percentile(80))
	needHeap := mapreduce.JVMBaseMB + sortMB + wsMB
	o.put(mrconf.MapMemoryMB, mrconf.MapMemoryMB.Param().Quantize(needHeap*1.15/mrconf.HeapFraction))

	// CPU rule: full utilization -> one more vcore, while improving.
	t.escalate(&t.cons.mapVcores, &t.cons.mapVcoreDur, &t.cons.mapVcoreStop,
		t.mon.MeanCPUUtil(mapreduce.MapTask) > 0.9, 1, 8,
		t.mon.MeanDuration(mapreduce.MapTask))
	o.put(mrconf.MapCPUVcores, float64(t.cons.mapVcores))
}

// recalcConservativeReduce mirrors the reduce-side rules: shuffle
// buffer from the estimated input, container sized to fit, parallel
// copies escalated in steps of 10 while improving.
func (t *Tuner) recalcConservativeReduce() {
	o := &t.cons.redOverrides
	est, ok := t.mon.EstReduceInputMB()
	if ok {
		wsMB := math.Max(100, t.mon.ReduceWorkingSet().Percentile(80))
		needHeap := mapreduce.JVMBaseMB + float64(est*1.15) + wsMB
		o.put(mrconf.ReduceMemoryMB, mrconf.ReduceMemoryMB.Param().Quantize(needHeap*1.1/mrconf.HeapFraction))
		o.put(mrconf.ShuffleMemoryLimitPct, 0.5)
	}

	t.escalate(&t.cons.redVcores, &t.cons.redVcoreDur, &t.cons.redVcoreStop,
		t.mon.MeanCPUUtil(mapreduce.ReduceTask) > 0.9, 1, 8,
		t.mon.MeanDuration(mapreduce.ReduceTask))
	o.put(mrconf.ReduceCPUVcores, float64(t.cons.redVcores))

	// Shuffle concurrency: +10 until task time stops improving (§6.3).
	t.escalate(&t.cons.parCopies, &t.cons.parCopiesDur, &t.cons.parCopiesStop,
		true, 10, 50, t.mon.MeanDuration(mapreduce.ReduceTask))
	o.put(mrconf.ShuffleParallelCopies, float64(t.cons.parCopies))

	// io.sort.factor: raise once if reduce-side disk merges happen.
	if !t.cons.sortFactorSet && t.mon.MeanSpillRatio(mapreduce.ReduceTask) > 0.5 {
		t.cons.sortFactorSet = true
		o.put(mrconf.IOSortFactor, float64(t.base.SortFactor()+20))
	}
}

// escalate implements the "increase while the task execution time
// keeps improving" pattern of §6.3.
func (t *Tuner) escalate(level *int, lastDur *float64, stopped *bool, saturated bool, step, max int, meanDur float64) {
	if *stopped || !saturated || meanDur <= 0 {
		return
	}
	if *lastDur > 0 && meanDur > *lastDur*0.97 {
		// Less than 3% improvement since the last escalation: stop.
		*stopped = true
		return
	}
	if *level+step <= max {
		*lastDur = meanDur
		*level += step
	} else {
		*stopped = true
	}
}

var _ mapreduce.Controller = (*Tuner)(nil)
