package experiments

import (
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/mapreduce"
	"repro/internal/metrics"
	"repro/internal/mrconf"
	"repro/internal/workload"
	"repro/internal/yarn"
)

// FaultRecoveryRow is one leg of the tuning-under-churn experiment.
type FaultRecoveryRow struct {
	Leg      string
	Duration float64
	Failed   bool

	// Cluster-side recovery counters for the run.
	Faults metrics.FaultCounters
	// Job-side recovery counters.
	NodeLossKills  int
	MapsReExecuted int
	TaskFailures   int
}

// DefaultCrashSpec is the canonical mid-job crash: node 3 dies 40
// seconds in (first map wave running, some outputs already produced)
// and restarts two minutes later.
func DefaultCrashSpec() *faults.Spec {
	return &faults.Spec{
		NodeCrashes: []faults.NodeCrash{{At: 40, Node: 3, RestartAfter: 120}},
	}
}

// FaultRecovery measures the full failure-recovery path end to end:
// Terasort 20 GB on the paper testbed, clean versus with a mid-job
// node crash, under the static default configuration and under
// MRONLINE's conservative tuner. The job must complete in every leg —
// killed attempts requeue, lost map outputs re-execute, and the tuner
// keeps working because failed-attempt samples are discarded. Uses
// e.FaultSpec when set, DefaultCrashSpec otherwise.
func (e Env) FaultRecovery() []FaultRecoveryRow {
	b := workload.Terasort(20, 0, 0)
	fspec := e.FaultSpec
	if fspec == nil || fspec.Empty() {
		fspec = DefaultCrashSpec()
	}
	run := func(leg string, inject bool, ctrl mapreduce.Controller) FaultRecoveryRow {
		r := e.NewRig(yarn.FIFOScheduler{})
		js := mapreduce.Spec{Benchmark: b, BaseConfig: mrconf.Default(), Controller: ctrl}
		if inject {
			Env{Seed: e.Seed, FaultSpec: fspec}.ArmFaults(r, &js)
		}
		res := r.Run(js)[0]
		return FaultRecoveryRow{
			Leg: leg, Duration: res.Duration, Failed: res.Failed,
			Faults:         *r.C.Faults,
			NodeLossKills:  res.Counters.NodeLossKills,
			MapsReExecuted: res.Counters.MapsReExecuted,
			TaskFailures:   res.Counters.TaskFailures,
		}
	}
	rows := []FaultRecoveryRow{
		run("clean/default", false, nil),
		run("faults/default", true, nil),
	}
	cons := core.NewTuner(b.Name, b.NumMaps, b.NumReduces, mrconf.Default(),
		core.TunerOptions{Strategy: core.Conservative, Seed: e.Seed})
	rows = append(rows, run("faults/mronline", true, cons))
	return rows
}
