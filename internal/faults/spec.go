// Package faults implements deterministic fault injection for the
// simulated cluster: node crashes and restarts, slow nodes, degraded
// disks, flapping links, shuffle fetch failures, and spontaneous task
// attempt failures. Faults are described by a declarative Spec
// (typically loaded from JSON), scheduled off the simulation clock,
// and randomized only through a dedicated named stream of the run's
// seeded RNG — so a faulted run is exactly as reproducible as a clean
// one: same seed and spec, same trace, bit for bit.
package faults

import (
	"encoding/json"
	"fmt"
	"os"
)

// NodeCrash kills a node at a point in time; the node restarts (empty:
// no replicas, no containers) after RestartAfter seconds, or never if
// RestartAfter is zero.
type NodeCrash struct {
	At           float64 `json:"at"`
	Node         int     `json:"node"`
	RestartAfter float64 `json:"restart_after,omitempty"`
}

// NodeSlow scales a node's CPU and disk capacity by Factor (e.g. 0.3)
// for Window seconds — the classic straggler node. Windows on the same
// node must not overlap.
type NodeSlow struct {
	At     float64 `json:"at"`
	Node   int     `json:"node"`
	Factor float64 `json:"factor"`
	Window float64 `json:"window"`
}

// DiskDegrade scales only the node's disk bandwidth by Factor for
// Window seconds (a failing or contended spindle).
type DiskDegrade struct {
	At     float64 `json:"at"`
	Node   int     `json:"node"`
	Factor float64 `json:"factor"`
	Window float64 `json:"window"`
}

// LinkFlap collapses a node's NIC bandwidth to ~zero for Window
// seconds (a flapping switch port). In-flight transfers stall but do
// not abort; they resume when the window closes.
type LinkFlap struct {
	At     float64 `json:"at"`
	Node   int     `json:"node"`
	Window float64 `json:"window"`
}

// TaskAttemptFail makes each task attempt fail spontaneously with
// probability Rate, after an exponentially distributed delay with mean
// MeanDelaySecs (default 5) from its launch.
type TaskAttemptFail struct {
	Rate          float64 `json:"rate"`
	MeanDelaySecs float64 `json:"mean_delay_secs,omitempty"`
}

// Spec is a full fault schedule. The zero value injects nothing.
type Spec struct {
	NodeCrashes  []NodeCrash   `json:"node_crashes,omitempty"`
	NodeSlow     []NodeSlow    `json:"node_slow,omitempty"`
	DiskDegrades []DiskDegrade `json:"disk_degrades,omitempty"`
	LinkFlaps    []LinkFlap    `json:"link_flaps,omitempty"`
	// FetchFailRate is the probability that any one shuffle fetch
	// attempt fails and is retried after a backoff.
	FetchFailRate   float64          `json:"fetch_fail_rate,omitempty"`
	TaskAttemptFail *TaskAttemptFail `json:"task_attempt_fail,omitempty"`
}

// Empty reports whether the spec injects nothing at all.
func (s *Spec) Empty() bool {
	return len(s.NodeCrashes) == 0 && len(s.NodeSlow) == 0 &&
		len(s.DiskDegrades) == 0 && len(s.LinkFlaps) == 0 &&
		s.FetchFailRate == 0 && s.TaskAttemptFail == nil
}

// FilterNodes returns a copy of the spec keeping only the scheduled
// faults whose target node satisfies keep, along with the
// probabilistic rates (which are not node-addressed). Node indices are
// not renumbered. Rack-cell serving uses it to hand each rack's
// injector exactly the faults landing on its own nodes.
func (s *Spec) FilterNodes(keep func(node int) bool) Spec {
	out := Spec{FetchFailRate: s.FetchFailRate, TaskAttemptFail: s.TaskAttemptFail}
	for _, c := range s.NodeCrashes {
		if keep(c.Node) {
			out.NodeCrashes = append(out.NodeCrashes, c)
		}
	}
	for _, sl := range s.NodeSlow {
		if keep(sl.Node) {
			out.NodeSlow = append(out.NodeSlow, sl)
		}
	}
	for _, d := range s.DiskDegrades {
		if keep(d.Node) {
			out.DiskDegrades = append(out.DiskDegrades, d)
		}
	}
	for _, l := range s.LinkFlaps {
		if keep(l.Node) {
			out.LinkFlaps = append(out.LinkFlaps, l)
		}
	}
	return out
}

// Validate checks ranges that do not depend on the target cluster
// (CheckNodes checks node indices against the cluster size).
func (s *Spec) Validate() error {
	for i, c := range s.NodeCrashes {
		if c.At < 0 || c.RestartAfter < 0 || c.Node < 0 {
			return fmt.Errorf("faults: node_crashes[%d]: negative at/restart_after/node", i)
		}
	}
	for i, sl := range s.NodeSlow {
		if sl.Factor <= 0 || sl.Factor > 1 {
			return fmt.Errorf("faults: node_slow[%d]: factor must be in (0,1]", i)
		}
		if sl.At < 0 || sl.Window < 0 || sl.Node < 0 {
			return fmt.Errorf("faults: node_slow[%d]: negative at/window/node", i)
		}
	}
	for i, d := range s.DiskDegrades {
		if d.Factor <= 0 || d.Factor > 1 {
			return fmt.Errorf("faults: disk_degrades[%d]: factor must be in (0,1]", i)
		}
		if d.At < 0 || d.Window < 0 || d.Node < 0 {
			return fmt.Errorf("faults: disk_degrades[%d]: negative at/window/node", i)
		}
	}
	for i, l := range s.LinkFlaps {
		if l.At < 0 || l.Window < 0 || l.Node < 0 {
			return fmt.Errorf("faults: link_flaps[%d]: negative at/window/node", i)
		}
	}
	if s.FetchFailRate < 0 || s.FetchFailRate >= 1 {
		return fmt.Errorf("faults: fetch_fail_rate must be in [0,1)")
	}
	if f := s.TaskAttemptFail; f != nil {
		if f.Rate < 0 || f.Rate > 1 {
			return fmt.Errorf("faults: task_attempt_fail.rate must be in [0,1]")
		}
		if f.MeanDelaySecs < 0 {
			return fmt.Errorf("faults: task_attempt_fail.mean_delay_secs must be >= 0")
		}
	}
	return nil
}

// CheckNodes reports the first fault whose node index is not below n,
// the worker count of the cluster the spec will be armed against.
func (s *Spec) CheckNodes(n int) error {
	check := func(what string, i, node int) error {
		if node >= n {
			return fmt.Errorf("faults: %s[%d]: node %d out of range (cluster has %d)", what, i, node, n)
		}
		return nil
	}
	for i, cr := range s.NodeCrashes {
		if err := check("node_crashes", i, cr.Node); err != nil {
			return err
		}
	}
	for i, sl := range s.NodeSlow {
		if err := check("node_slow", i, sl.Node); err != nil {
			return err
		}
	}
	for i, d := range s.DiskDegrades {
		if err := check("disk_degrades", i, d.Node); err != nil {
			return err
		}
	}
	for i, l := range s.LinkFlaps {
		if err := check("link_flaps", i, l.Node); err != nil {
			return err
		}
	}
	return nil
}

// Parse decodes and validates a JSON spec.
func Parse(data []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("faults: parse spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads a JSON spec from a file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("faults: %w", err)
	}
	return Parse(data)
}
