package cluster

import "fmt"

// Node is one machine: a CPU pool, a container memory pool, one disk,
// and a full-duplex NIC. The disk and CPU each live in their own
// single-link fabric (contention is node-local); the NIC links live in
// the cluster's network fabric. The pool, both fabrics and all four
// links are part of the Node itself, so cluster.New builds a node
// without allocating; a Node must therefore never be copied.
type Node struct {
	ID   int
	Name string
	Rack int

	// Cores is the physical compute capacity in core-seconds/second.
	Cores float64
	// VCores is the node manager's advertised virtual core count for
	// container allocation (yarn.nodemanager.resource.cpu-vcores minus
	// the daemon reservation).
	VCores int

	Mem *MemPool // container memory, MB; points at mem

	NICIn  *Link // receive direction, in the cluster network fabric; points at nicIn
	NICOut *Link // transmit direction; points at nicOut

	cluster *Cluster

	// down marks a crashed node (see Cluster.KillNode). While down, the
	// node accepts no new work; its fabrics still exist so that restore
	// is cheap, but every flow was aborted at crash time.
	down bool

	mem                              MemPool
	cpu, disk                        Fabric
	cpuLink, diskLink, nicIn, nicOut Link
	// links backs the CPU and disk fabrics' one-element link slices,
	// which every flow on those fabrics shares. The fabric never
	// mutates a flow's links slice, so the share is safe and saves one
	// allocation per Compute/DiskRead/DiskWrite.
	links [2]*Link
}

// CoreRatio returns physical cores per vcore: a container holding v
// vcores may consume up to v*CoreRatio() physical cores (cgroup-style
// enforcement, as in the paper's utilization discussion).
func (n *Node) CoreRatio() float64 {
	return n.Cores / float64(n.VCores)
}

// Compute starts a CPU flow of cpuSeconds core-seconds, bounded by
// maxCores (the container's vcore allowance times CoreRatio, further
// capped by the phase's thread parallelism). done fires on completion.
func (n *Node) Compute(cpuSeconds, maxCores float64, done func()) *Flow {
	if maxCores <= 0 {
		panic(fmt.Sprintf("cluster: Compute on %s with non-positive core cap %v", n.Name, maxCores))
	}
	return n.cpu.Start(n.cpu.links, cpuSeconds, maxCores, done)
}

// DiskRead starts a disk flow of mb megabytes. Reads and writes share
// the single disk channel, as on the paper's one-SATA-disk nodes.
func (n *Node) DiskRead(mb float64, done func()) *Flow {
	return n.disk.Start(n.disk.links, mb, 0, done)
}

// DiskWrite starts a disk flow of mb megabytes.
func (n *Node) DiskWrite(mb float64, done func()) *Flow {
	return n.disk.Start(n.disk.links, mb, 0, done)
}

// CPULoad returns the instantaneous fraction of physical cores busy —
// the "dynamic cluster utilization information" MRONLINE's monitor
// samples for hot-spot avoidance.
func (n *Node) CPULoad() float64 {
	return n.cpuLink.CurrentRate() / n.cpuLink.Capacity
}

// DiskLoad returns the instantaneous fraction of disk bandwidth busy.
func (n *Node) DiskLoad() float64 {
	return n.diskLink.CurrentRate() / n.diskLink.Capacity
}

// InjectDiskLoad starts background disk traffic on the node: up to
// `rate` MB/s (competing fairly with task I/O) for `duration` seconds.
// It models interference from co-located services — the cluster hot
// spots the paper's online tuning reacts to.
func (n *Node) InjectDiskLoad(rate, duration float64, done func()) *Flow {
	return n.disk.Start(n.disk.links, rate*duration, rate, done)
}

// InjectCPULoad starts a background computation using up to `cores`
// cores for `duration` seconds.
func (n *Node) InjectCPULoad(cores, duration float64, done func()) *Flow {
	return n.cpu.Start(n.cpu.links, cores*duration, cores, done)
}

// Down reports whether the node is currently crashed.
func (n *Node) Down() bool { return n.down }

// CPUCapacity returns the CPU link's current capacity in cores (equal
// to Cores unless fault injection degraded it).
func (n *Node) CPUCapacity() float64 { return n.cpuLink.Capacity }

// SetCPUCapacity rescales the node's CPU pool (fault injection: a slow
// or throttled node). Running flows continue at recomputed fair shares.
func (n *Node) SetCPUCapacity(cores float64) { n.cpu.SetCapacity(&n.cpuLink, cores) }

// DiskBandwidth returns the disk link's current capacity in MB/s.
func (n *Node) DiskBandwidth() float64 { return n.diskLink.Capacity }

// SetDiskBandwidth rescales the node's disk channel (fault injection:
// a degraded disk).
func (n *Node) SetDiskBandwidth(mbps float64) { n.disk.SetCapacity(&n.diskLink, mbps) }

// NICBandwidth returns the per-direction NIC capacity in MB/s.
func (n *Node) NICBandwidth() float64 { return n.NICIn.Capacity }

// SetNICBandwidth rescales both NIC directions (fault injection: a
// flapping or degraded link).
func (n *Node) SetNICBandwidth(mbps float64) {
	n.cluster.net.SetCapacity(n.NICIn, mbps)
	n.cluster.net.SetCapacity(n.NICOut, mbps)
}
