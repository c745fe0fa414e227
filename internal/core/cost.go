// Package core implements MRONLINE: the online tuner (monitor and
// tuner; as a mapreduce.Controller the tuner is also the dynamic
// configurator that hands each task its configuration) of the paper,
// built on the task-level dynamic configuration framework (per-task
// configs and variable-sized containers in internal/yarn and
// internal/mapreduce), the gray-box
// smart hill-climbing search (§5) over the mrconf parameter space, and
// the MapReduce-specific tuning rules (§6).
package core

import (
	"repro/internal/mapreduce"
)

// OOMPenalty is added to the cost of an attempt whose container was
// killed for exceeding its memory, pushing the search away from
// infeasible configurations.
const OOMPenalty = 10.0

// CostWeights scale the four terms of Equation 1, in order: memory
// under-utilization, CPU under-utilization, spill ratio, relative
// time. UnitWeights is the paper's formula; zeroing a term is the
// ablation knob.
type CostWeights [4]float64

// UnitWeights is Equation 1 as published.
var UnitWeights = CostWeights{1, 1, 1, 1}

// WeightedCost is the paper's Equation 1 with per-term weights w:
//
//	y = (1-umem) + (1-ucpu) + spills/outputRecords + t/tmax
//
// under UnitWeights; lower is better: fully used memory and CPU, no
// redundant spills, and a short run relative to the slowest task of
// the same type. Other weights serve ablations.
func WeightedCost(r mapreduce.TaskReport, tmax float64, w CostWeights) float64 {
	spillRatio := 0.0
	if r.OutputRecords > 0 {
		spillRatio = r.SpilledRecords / r.OutputRecords
	}
	trel := 0.0
	if tmax > 0 {
		trel = r.Duration() / tmax
	}
	y := float64(w[0]*(1-r.MemUtil)) + float64(w[1]*(1-r.CPUUtil)) +
		float64(w[2]*spillRatio) + float64(w[3]*trel)
	if r.OOM || r.Failed {
		// Failed attempts get the same penalty: their partial
		// measurements must never look like a good configuration.
		y += OOMPenalty
	}
	return y
}
