package faults

import (
	"fmt"
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
	checkNode := func(what string, i, node int) error {
		if node >= len(c.Nodes) {
			return fmt.Errorf("faults: %s[%d]: node %d out of range (cluster has %d)", what, i, node, len(c.Nodes))
		}
		return nil
	}
	for i, cr := range spec.NodeCrashes {
		if err := checkNode("node_crashes", i, cr.Node); err != nil {
			return nil, err
		}
	}
	for i, sl := range spec.NodeSlow {
		if err := checkNode("node_slow", i, sl.Node); err != nil {
			return nil, err
		}
	}
	for i, d := range spec.DiskDegrades {
		if err := checkNode("disk_degrades", i, d.Node); err != nil {
			return nil, err
		}
	}
	for i, l := range spec.LinkFlaps {
		if err := checkNode("link_flaps", i, l.Node); err != nil {
			return nil, err
		}
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

// Scheduled faults arm on the target node's rack shard, not the system
// shard: the callbacks only touch that node's resource domains (and, in
// rack-cell mode, that rack's listeners), so the events are rack-local.
// The shard choice only labels the event — firing order and timestamps
// are unchanged.
func (in *Injector) armCrash(cr NodeCrash) {
	n := in.c.Nodes[cr.Node]
	sh := n.Shard()
	sh.At(cr.At, func() {
		if n.Down() {
			return
		}
		in.c.KillNode(n)
		in.rec.Add(trace.Event{Time: sh.Now(), Job: "cluster", Kind: trace.NodeDown,
			Node: n.Name, Detail: "crash"})
		if cr.RestartAfter <= 0 {
			return
		}
		sh.After(cr.RestartAfter, func() {
			if !n.Down() {
				return
			}
			in.c.RestoreNode(n)
			in.rec.Add(trace.Event{Time: sh.Now(), Job: "cluster", Kind: trace.NodeUp,
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
	sh := n.Shard()
	sh.At(at, func() {
		baseCPU := n.CPUCapacity()
		baseDisk := n.DiskBandwidth()
		if cpu {
			n.SetCPUCapacity(baseCPU * factor)
		}
		n.SetDiskBandwidth(baseDisk * factor)
		if window <= 0 {
			return // degraded for the rest of the run
		}
		sh.After(window, func() {
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
	sh := n.Shard()
	sh.At(l.At, func() {
		base := n.NICBandwidth()
		n.SetNICBandwidth(base * linkFlapFactor)
		if l.Window <= 0 {
			return
		}
		sh.After(l.Window, func() {
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
