package core

import "repro/internal/mapreduce"

// Accessors that only tests use.

// Len returns the number of stored class entries.
func (kb *KnowledgeBase) Len() int {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	return len(kb.entries)
}

// Monitor exposes the tuner's monitor.
func (t *Tuner) Monitor() *Monitor { return t.mon }

// SearchDone reports whether both scopes' searches have converged.
func (t *Tuner) SearchDone() bool {
	if t.Strategy != Aggressive {
		return false
	}
	return t.mapS.opt.Done() && t.redS.opt.Done()
}

// Backend names the optimizer backend this tuner drives.
func (t *Tuner) Backend() string { return t.backend }

// Cost is the paper's unweighted Equation 1.
func Cost(r mapreduce.TaskReport, tmax float64) float64 {
	return WeightedCost(r, tmax, UnitWeights)
}
