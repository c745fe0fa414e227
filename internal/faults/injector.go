package faults

import (
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Injector arms a Spec against a cluster. Scheduled faults (crashes,
// slow windows) are posted as simulation events at construction time;
// probabilistic faults (fetch failures, attempt failures) are served
// through the hook methods, which satisfy mapreduce.FaultHooks.
//
// All randomness comes from the "faults" stream of the provided
// source: a named stream is independent of every other stream derived
// from the same seed, so adding fault injection never perturbs the
// workload's own random draws — and a clean run of the same seed is
// untouched.
type Injector struct {
	c    *cluster.Cluster
	rec  trace.Sink
	spec Spec

	fetchRNG      *rand.Rand
	attemptRNG    *rand.Rand
	meanFailDelay float64
}

// DefaultMeanFailDelaySecs is the mean attempt-failure delay when the
// spec leaves it unset.
const DefaultMeanFailDelaySecs = 5.0

// New validates spec against the cluster and schedules its timed
// faults on the cluster's engine. rec (any trace.Sink; nil is treated
// as trace.Discard) receives node_down/node_up events under the
// pseudo-job "cluster".
func New(c *cluster.Cluster, src *sim.Source, spec Spec, rec trace.Sink) (*Injector, error) {
	if err := spec.CheckNodes(len(c.Nodes)); err != nil {
		return nil, err
	}

	if rec == nil {
		rec = trace.Discard
	}
	in := &Injector{c: c, rec: rec, spec: spec, meanFailDelay: DefaultMeanFailDelaySecs}
	if f := spec.TaskAttemptFail; f != nil && f.MeanDelaySecs > 0 {
		in.meanFailDelay = f.MeanDelaySecs
	}
	// Streams are created lazily-never: only when the matching rate is
	// set, so an all-timed spec draws no random numbers at all.
	fsrc := src.Sub("faults")
	if spec.FetchFailRate > 0 {
		in.fetchRNG = fsrc.Stream("fetch")
	}
	if f := spec.TaskAttemptFail; f != nil && f.Rate > 0 {
		in.attemptRNG = fsrc.Stream("attempt")
	}

	for _, cr := range spec.NodeCrashes {
		in.armCrash(cr)
	}
	for _, sl := range spec.NodeSlow {
		in.armSlow(sl.At, sl.Node, sl.Factor, sl.Window, true)
	}
	for _, d := range spec.DiskDegrades {
		in.armSlow(d.At, d.Node, d.Factor, d.Window, false)
	}
	for _, l := range spec.LinkFlaps {
		in.armFlap(l)
	}
	return in, nil
}

func (in *Injector) armCrash(cr NodeCrash) {
	n := in.c.Nodes[cr.Node]
	eng := in.c.Eng
	eng.At(cr.At, func() {
		if n.Down() {
			return
		}
		in.c.KillNode(n)
		in.rec.Add(trace.Event{Time: eng.Now(), Job: "cluster", Kind: trace.NodeDown,
			Node: n.Name, Detail: "crash"})
		if cr.RestartAfter <= 0 {
			return
		}
		eng.After(cr.RestartAfter, func() {
			if !n.Down() {
				return
			}
			in.c.RestoreNode(n)
			in.rec.Add(trace.Event{Time: eng.Now(), Job: "cluster", Kind: trace.NodeUp,
				Node: n.Name, Detail: "restart"})
		})
	})
}

// armSlow scales disk (and, when cpu is set, CPU) capacity by factor
// for the window, restoring the capacities captured at window start.
// Windows on the same node must not overlap (Spec doc): the restore
// would otherwise re-install the other window's scaled capacity.
func (in *Injector) armSlow(at float64, node int, factor, window float64, cpu bool) {
	n := in.c.Nodes[node]
	eng := in.c.Eng
	eng.At(at, func() {
		baseCPU := n.CPUCapacity()
		baseDisk := n.DiskBandwidth()
		if cpu {
			n.SetCPUCapacity(baseCPU * factor)
		}
		n.SetDiskBandwidth(baseDisk * factor)
		if window <= 0 {
			return // degraded for the rest of the run
		}
		eng.After(window, func() {
			if cpu {
				n.SetCPUCapacity(baseCPU)
			}
			n.SetDiskBandwidth(baseDisk)
		})
	})
}

// linkFlapFactor is the residual NIC capacity during a flap: near-dead
// but nonzero, so in-flight transfers stall rather than divide by zero.
const linkFlapFactor = 1e-3

func (in *Injector) armFlap(l LinkFlap) {
	n := in.c.Nodes[l.Node]
	eng := in.c.Eng
	eng.At(l.At, func() {
		base := n.NICBandwidth()
		n.SetNICBandwidth(base * linkFlapFactor)
		if l.Window <= 0 {
			return
		}
		eng.After(l.Window, func() {
			n.SetNICBandwidth(base)
		})
	})
}

// FetchFails implements mapreduce.FaultHooks.
func (in *Injector) FetchFails() bool {
	if in.fetchRNG == nil {
		return false
	}
	return in.fetchRNG.Float64() < in.spec.FetchFailRate
}

// AttemptFailDelay implements mapreduce.FaultHooks.
func (in *Injector) AttemptFailDelay(taskType string, taskID, attempt int) (float64, bool) {
	if in.attemptRNG == nil {
		return 0, false
	}
	if in.attemptRNG.Float64() >= in.spec.TaskAttemptFail.Rate {
		return 0, false
	}
	return in.attemptRNG.ExpFloat64() * in.meanFailDelay, true
}
