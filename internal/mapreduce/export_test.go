package mapreduce

import (
	"repro/internal/mrconf"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Views of job state that only tests read.

// Benchmark returns the workload this job runs.
func (j *Job) Benchmark() workload.Benchmark { return j.bench }

// BaseConfig returns the job-level configuration.
func (j *Job) BaseConfig() mrconf.Config { return j.spec.BaseConfig }

// Engine returns the simulation engine (for controllers).
func (j *Job) Engine() *sim.Engine { return j.eng }

// CompletedMaps returns the number of finished map tasks.
func (j *Job) CompletedMaps() int { return j.completedMaps }

// CompletedReduces returns the number of finished reduce tasks.
func (j *Job) CompletedReduces() int { return j.completedReduces }

// MapTasks and ReduceTasks expose task state.
func (j *Job) MapTasks() []*Task    { return j.mapTasks }
func (j *Job) ReduceTasks() []*Task { return j.reduceTasks }

// Held returns the reduce-container memory the job still counts
// against its headroom and its live speculative copies. Both are
// exactly zero once it has finished cleanly.
func (j *Job) Held() (reduceMemMB float64, liveShadows int) {
	return j.reduceMemHeld, j.liveShadows
}
