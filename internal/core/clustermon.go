package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// ClusterMonitor implements the per-node slave monitors of the paper's
// architecture (Fig 2): it periodically samples every node's CPU load,
// disk load, and container-memory allocation and keeps a bounded
// history per node. The centralized tuner reads it for hot-spot
// detection and for the cluster-level statistics the monitor "sends to
// the centralized monitor".
type ClusterMonitor struct {
	Interval float64
	// Capacity bounds the per-node history length (ring buffer).
	Capacity int

	eng     *sim.Engine
	c       *cluster.Cluster
	samples map[string][]NodeSample
	ticker  *sim.Ticker
}

// NodeSample is one observation of one node.
type NodeSample struct {
	Time        float64
	CPULoad     float64
	DiskLoad    float64
	MemUsedFrac float64
}

// StartClusterMonitor begins sampling every interval seconds. The
// monitor keeps the simulation alive while running; call Stop when the
// observed workload completes, or the event queue never drains.
func StartClusterMonitor(eng *sim.Engine, c *cluster.Cluster, interval float64) *ClusterMonitor {
	if interval <= 0 {
		interval = 5
	}
	m := &ClusterMonitor{
		Interval: interval,
		Capacity: 720,
		eng:      eng,
		c:        c,
		samples:  make(map[string][]NodeSample, len(c.Nodes)),
	}
	m.ticker = eng.Tick(interval, func() bool {
		m.sample()
		return true
	})
	return m
}

func (m *ClusterMonitor) sample() {
	now := m.eng.Now()
	for _, n := range m.c.Nodes {
		s := NodeSample{
			Time:        now,
			CPULoad:     n.CPULoad(),
			DiskLoad:    n.DiskLoad(),
			MemUsedFrac: n.Mem.Used() / n.Mem.Capacity,
		}
		h := append(m.samples[n.Name], s)
		if len(h) > m.Capacity {
			h = h[len(h)-m.Capacity:]
		}
		m.samples[n.Name] = h
	}
}

// Stop halts sampling (idempotent).
func (m *ClusterMonitor) Stop() { m.ticker.Stop() }

// Latest returns the most recent sample for a node.
func (m *ClusterMonitor) Latest(node string) (NodeSample, bool) {
	h := m.samples[node]
	if len(h) == 0 {
		return NodeSample{}, false
	}
	return h[len(h)-1], true
}

// History returns a copy of the retained samples for a node.
func (m *ClusterMonitor) History(node string) []NodeSample {
	h := m.samples[node]
	out := make([]NodeSample, len(h))
	copy(out, h)
	return out
}

// WindowAverage averages a node's samples over the trailing window
// seconds; ok is false when no samples fall in the window.
func (m *ClusterMonitor) WindowAverage(node string, window float64) (NodeSample, bool) {
	h := m.samples[node]
	if len(h) == 0 {
		return NodeSample{}, false
	}
	cutoff := h[len(h)-1].Time - window
	var avg NodeSample
	n := 0
	for i := len(h) - 1; i >= 0 && h[i].Time >= cutoff; i-- {
		avg.CPULoad += h[i].CPULoad
		avg.DiskLoad += h[i].DiskLoad
		avg.MemUsedFrac += h[i].MemUsedFrac
		avg.Time = h[i].Time
		n++
	}
	if n == 0 {
		return NodeSample{}, false
	}
	avg.CPULoad /= float64(n)
	avg.DiskLoad /= float64(n)
	avg.MemUsedFrac /= float64(n)
	return avg, true
}

// HotNodes lists nodes whose trailing-window load exceeds the
// thresholds — the smoothed variant of the instantaneous HotSpotFilter,
// robust against sampling a momentary spike.
func (m *ClusterMonitor) HotNodes(th HotSpotThresholds, window float64) []*cluster.Node {
	var out []*cluster.Node
	for _, n := range m.c.Nodes {
		if avg, ok := m.WindowAverage(n.Name, window); ok {
			if avg.CPULoad >= th.CPULoad || avg.DiskLoad >= th.DiskLoad {
				out = append(out, n)
			}
		}
	}
	return out
}

// SmoothedHotSpotFilter returns a yarn node filter backed by the
// monitor's trailing-window averages instead of instantaneous loads.
func (m *ClusterMonitor) SmoothedHotSpotFilter(th HotSpotThresholds, window float64) func(*cluster.Node) bool {
	return func(n *cluster.Node) bool {
		avg, ok := m.WindowAverage(n.Name, window)
		if !ok {
			return true // no data yet: do not veto
		}
		return avg.CPULoad < th.CPULoad && avg.DiskLoad < th.DiskLoad
	}
}

// Summary renders a one-line load overview, for CLI diagnostics.
func (m *ClusterMonitor) Summary() string {
	var cpu, disk, mem float64
	n := 0
	for _, node := range m.c.Nodes {
		if s, ok := m.Latest(node.Name); ok {
			cpu += s.CPULoad
			disk += s.DiskLoad
			mem += s.MemUsedFrac
			n++
		}
	}
	if n == 0 {
		return "cluster-monitor: no samples"
	}
	f := float64(n)
	return fmt.Sprintf("cluster avg load: cpu %.0f%%, disk %.0f%%, mem %.0f%% (%d nodes)",
		100*cpu/f, 100*disk/f, 100*mem/f, n)
}
