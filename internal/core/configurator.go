package core

import (
	"fmt"
	"sort"

	"repro/internal/mrconf"
)

// DynamicConfigurator implements the paper's Table 1 API: querying the
// configurable parameter set and setting job-wide or per-task
// parameter values. The tuner writes new configurations through it;
// the application master reads the effective configuration for each
// task as it launches (the "slave configurator picks up the changed
// configuration files" path of §4).
type DynamicConfigurator struct {
	jobs map[string]*jobConfigs
}

type jobConfigs struct {
	job   assignment
	tasks map[string]assignment
}

// assignment is a set of explicitly assigned parameter values, dense by
// ParamID. Unlike a Config it remembers which keys were set, so an
// explicit value equal to the default still overrides a non-default
// base value.
type assignment struct {
	set [mrconf.NumParams]bool
	v   [mrconf.NumParams]float64
}

// put assigns a known parameter.
func (a *assignment) put(name string, v float64) {
	id, _ := mrconf.ID(name)
	a.set[id], a.v[id] = true, v
}

// putAll assigns every entry of kv, in registry order.
func (a *assignment) putAll(kv map[string]float64) {
	for _, p := range mrconf.Params() {
		if v, ok := kv[p.Name]; ok {
			a.put(p.Name, v)
		}
	}
}

// applyTo returns cfg with every assigned value set, in registry order.
func (a *assignment) applyTo(cfg mrconf.Config) mrconf.Config {
	return cfg.WithIDs(&a.set, &a.v)
}

// NewDynamicConfigurator returns an empty configurator.
func NewDynamicConfigurator() *DynamicConfigurator {
	return &DynamicConfigurator{jobs: make(map[string]*jobConfigs)}
}

func (d *DynamicConfigurator) jobEntry(jobID string) *jobConfigs {
	e, ok := d.jobs[jobID]
	if !ok {
		e = &jobConfigs{tasks: make(map[string]assignment)}
		d.jobs[jobID] = e
	}
	return e
}

// GetConfigurableJobParameters returns the parameters that can still
// be changed for the job's current and future tasks (categories 2 and
// 3 of §2.2), sorted for stable output.
func (d *DynamicConfigurator) GetConfigurableJobParameters(jobID string) []string {
	var names []string
	for _, p := range mrconf.Params() {
		if p.Category == mrconf.CategoryTaskLaunch || p.Category == mrconf.CategoryLive {
			names = append(names, p.Name)
		}
	}
	sort.Strings(names)
	return names
}

// GetConfigurableTaskParameters returns the parameters applicable to
// one task: its scope's parameters (a map task is not affected by
// reduce buffers).
func (d *DynamicConfigurator) GetConfigurableTaskParameters(jobID, taskID string) []string {
	scope := mrconf.ScopeMap
	if len(taskID) > 0 && taskID[0] == 'r' {
		scope = mrconf.ScopeReduce
	}
	var names []string
	for _, p := range mrconf.ParamsByScope(scope) {
		names = append(names, p.Name)
	}
	sort.Strings(names)
	return names
}

// SetJobParameters sets job-wide parameter values, returning the
// number of parameters applied (unknown names are rejected wholesale,
// mirroring the int status code of the paper's API).
func (d *DynamicConfigurator) SetJobParameters(jobID string, kv map[string]float64) int {
	for name := range kv {
		if _, ok := mrconf.Lookup(name); !ok {
			return -1
		}
	}
	d.jobEntry(jobID).job.putAll(kv)
	return len(kv)
}

// SetTaskParameters sets parameters for one task.
func (d *DynamicConfigurator) SetTaskParameters(jobID, taskID string, kv map[string]float64) int {
	for name := range kv {
		if _, ok := mrconf.Lookup(name); !ok {
			return -1
		}
	}
	e := d.jobEntry(jobID)
	tk := e.tasks[taskID]
	tk.putAll(kv)
	e.tasks[taskID] = tk
	return len(kv)
}

// setTaskPoint records a search point as one task's parameters, each
// coordinate quantized to its dimension's grid: SetTaskParameters for
// the tuner's per-task path, without building a map.
func (d *DynamicConfigurator) setTaskPoint(jobID, taskID string, dims []mrconf.Param, point []float64) {
	e := d.jobEntry(jobID)
	tk := e.tasks[taskID]
	for i, p := range dims {
		tk.put(p.Name, p.Quantize(point[i]))
	}
	e.tasks[taskID] = tk
}

// SetAllTaskParameters sets parameters for every task of the job
// (clearing conflicting per-task overrides so the job-wide value
// wins, as the paper's setTaskParameters(jid, kv) overload does).
func (d *DynamicConfigurator) SetAllTaskParameters(jobID string, kv map[string]float64) int {
	n := d.SetJobParameters(jobID, kv)
	if n < 0 {
		return n
	}
	e := d.jobEntry(jobID)
	for taskID, tk := range e.tasks {
		for name := range kv {
			id, _ := mrconf.ID(name)
			tk.set[id] = false
		}
		e.tasks[taskID] = tk
	}
	return n
}

// ClearTask removes per-task overrides (after the task has launched
// with them).
func (d *DynamicConfigurator) ClearTask(jobID, taskID string) {
	if e, ok := d.jobs[jobID]; ok {
		delete(e.tasks, taskID)
	}
}

// ConfigFor resolves the effective configuration for a task: base,
// then job-wide overrides, then per-task overrides.
func (d *DynamicConfigurator) ConfigFor(jobID, taskID string, base mrconf.Config) mrconf.Config {
	e, ok := d.jobs[jobID]
	if !ok {
		return base
	}
	cfg := e.job.applyTo(base)
	if tk, ok := e.tasks[taskID]; ok {
		cfg = tk.applyTo(cfg)
	}
	return cfg
}

// TaskID renders the canonical task identifier used by the
// configurator ("m-00042" / "r-00007").
func TaskID(isMap bool, id int) string {
	if isMap {
		return fmt.Sprintf("m-%05d", id)
	}
	return fmt.Sprintf("r-%05d", id)
}
