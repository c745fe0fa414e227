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

// Configurator exposes the Table 1 API instance backing this tuner.
func (t *Tuner) Configurator() *DynamicConfigurator { return t.dc }

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

// MapReports and ReduceReports return all ingested reports.
func (m *Monitor) MapReports() []mapreduce.TaskReport    { return m.mapReports }
func (m *Monitor) ReduceReports() []mapreduce.TaskReport { return m.reduceReports }
