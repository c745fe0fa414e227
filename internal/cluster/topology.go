package cluster

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Config describes a homogeneous cluster. The zero value is not usable;
// use PaperConfig for the testbed in the MRONLINE paper.
type Config struct {
	// RackSizes gives the number of worker nodes per rack.
	RackSizes []int
	// CoresPerNode is physical compute capacity per node (core-sec/sec).
	CoresPerNode float64
	// VCoresPerNode is the vcore count advertised for containers.
	VCoresPerNode int
	// ContainerMemMB is the memory available for containers per node.
	ContainerMemMB float64
	// DiskMBps is sequential disk bandwidth per node.
	DiskMBps float64
	// NICMBps is NIC bandwidth per direction per node.
	NICMBps float64
	// UplinkMBps is the effective inter-rack aggregate bandwidth. Flows
	// between racks traverse this shared link in addition to both NICs.
	UplinkMBps float64
	// Classes, when non-empty, builds a heterogeneous cluster instead
	// of the homogeneous RackSizes layout: nodes are created per class
	// and spread round-robin across len(RackSizes) racks (the sizes
	// themselves are ignored).
	Classes []NodeClass
	// RackLocalNet restructures the network for rack-isolated serving
	// (rack cells): instead of one cluster-wide fabric, each rack gets
	// its own fabric holding that rack's NICs and its uplink, so a
	// flow's rate recompute only ever scans its own rack. Cross-rack
	// Transfer panics in this mode; it exists for rack-cell workloads
	// where all traffic is rack-local.
	RackLocalNet bool
}

// NodeClass describes one hardware flavor in a heterogeneous cluster.
type NodeClass struct {
	Count          int
	Cores          float64
	VCores         int
	ContainerMemMB float64
	DiskMBps       float64
	NICMBps        float64
}

// PaperConfig returns the MRONLINE testbed: 18 worker nodes in racks of
// 9 and 9 (the paper's 19th node runs only the master and is not
// modelled as a worker), two quad-core Xeons (8 cores) per node, 8 GB
// RAM of which 6 GB is available for containers, 28 vcores for
// containers out of 32 advertised (each vcore = 1/4 physical core),
// one SATA disk (~90 MB/s), and 1 Gbps Ethernet (~117 MB/s).
func PaperConfig() Config {
	return Config{
		RackSizes:      []int{9, 9},
		CoresPerNode:   8,
		VCoresPerNode:  28,
		ContainerMemMB: 6 * 1024,
		DiskMBps:       90,
		NICMBps:        117,
		UplinkMBps:     500, // ~4:1 oversubscribed rack uplinks
	}
}

// HeterogeneousPaperConfig returns a mixed-hardware variant of the
// testbed: 12 standard nodes plus 6 older, smaller ones — the setting
// in which one-size-fits-all configurations hurt most and per-task
// configuration pays.
//
//mrlint:ignore test-only-export the mixed-hardware testbed shared by the cluster and experiments tests; one definition keeps them alike
func HeterogeneousPaperConfig() Config {
	cfg := PaperConfig()
	cfg.Classes = []NodeClass{
		{Count: 12, Cores: 8, VCores: 28, ContainerMemMB: 6 * 1024, DiskMBps: 90, NICMBps: 117},
		{Count: 6, Cores: 4, VCores: 16, ContainerMemMB: 3 * 1024, DiskMBps: 60, NICMBps: 117},
	}
	return cfg
}

// Cluster owns the nodes and the shared network fabric. Every resource
// domain (each node's CPU pool, disk and memory meter, the network)
// schedules on the one engine Eng.
type Cluster struct {
	Eng   *sim.Engine
	Nodes []*Node // points into nodes
	Racks [][]*Node

	// nodes holds every node, in ID order.
	nodes []Node

	// Faults is the cluster-wide fault/recovery counter sheet. Every
	// layer (HDFS, YARN, MapReduce) records recovery activity here
	// through its cluster pointer. All zeros when nothing was injected.
	Faults *metrics.FaultCounters

	net *Fabric
	// rackNets, in RackLocalNet mode, are the per-rack network fabrics
	// (nil otherwise); netFor routes every flow to the right one.
	rackNets []*Fabric
	uplinks  []*Link
	// totalMemMB caches the cluster-wide container memory; the node set
	// is fixed once New returns.
	totalMemMB float64

	// nodeListeners are notified, in registration order, when a node
	// goes down or comes back up (see SubscribeNodeState).
	nodeListeners []func(n *Node, down bool)
	// rackListeners are the rack-scoped equivalent (see
	// SubscribeNodeStateRack); entry r only ever sees rack r's nodes.
	rackListeners [][]func(n *Node, down bool)
}

// New builds a cluster per cfg. It validates the whole config first,
// then sizes everything it builds once: all nodes live in one array.
func New(eng *sim.Engine, cfg Config) *Cluster {
	racks := len(cfg.RackSizes)
	if racks == 0 {
		panic("cluster: config needs at least one rack")
	}
	total := 0
	if len(cfg.Classes) > 0 {
		for _, cl := range cfg.Classes {
			if cl.Count <= 0 || cl.Cores <= 0 || cl.VCores <= 0 || cl.ContainerMemMB <= 0 {
				panic(fmt.Sprintf("cluster: invalid node class %+v", cl))
			}
			total += cl.Count
		}
	} else {
		for r, size := range cfg.RackSizes {
			if size < 0 {
				panic(fmt.Sprintf("cluster: rack %d has negative size %d", r, size))
			}
			total += size
		}
	}
	sizes := cfg.RackSizes
	if len(cfg.Classes) > 0 {
		// Classes deal their nodes round-robin across the racks.
		sizes = make([]int, racks)
		for i := 0; i < total; i++ {
			sizes[i%racks]++
		}
	}
	uplinks := 0
	if racks > 1 {
		uplinks = 1
	}

	c := &Cluster{Eng: eng, Faults: &metrics.FaultCounters{}}
	// Every fabric recomputes in one scratch workspace and recycles
	// flows through its free list; the workspace also names the
	// topology for panics and errors.
	ws := &workspace{eng: eng, cluster: c}
	c.net = newFabric(ws)
	c.Racks = make([][]*Node, racks)
	for r := range c.Racks {
		c.Racks[r] = make([]*Node, 0, sizes[r])
	}
	if cfg.RackLocalNet {
		c.rackNets = make([]*Fabric, racks)
		c.rackListeners = make([][]func(n *Node, down bool), racks)
		for r := range c.rackNets {
			c.rackNets[r] = newFabric(ws)
			c.rackNets[r].links = make([]*Link, 0, 2*sizes[r]+uplinks)
		}
	} else {
		c.net.links = make([]*Link, 0, 2*total+racks*uplinks)
	}
	c.nodes = make([]Node, total)
	c.Nodes = make([]*Node, total)
	// The node names slice one string: node00, node01, ...
	var names strings.Builder
	names.Grow(total * len(fmt.Sprintf("node%02d", total)))

	id := 0
	addNode := func(rack int, cores float64, vcores int, memMB, diskMBps, nicMBps float64) {
		n := &c.nodes[id]
		start := names.Len()
		var digits [20]byte
		names.WriteString("node")
		if id < 10 {
			names.WriteByte('0')
		}
		names.Write(strconv.AppendInt(digits[:0], int64(id), 10))
		n.ID, n.Name, n.Rack = id, names.String()[start:], rack
		n.Cores, n.VCores, n.cluster = cores, vcores, c
		n.mem.ws = ws
		n.mem.init(memMB)
		n.Mem = &n.mem
		n.cpu = Fabric{eng: eng, ws: ws, links: n.links[0:0:1]}
		n.cpu.addLink(&n.cpuLink, cores)
		n.disk = Fabric{eng: eng, ws: ws, links: n.links[1:1:2]}
		n.disk.addLink(&n.diskLink, diskMBps)
		nf := c.netFor(n)
		n.NICIn = nf.addLink(&n.nicIn, nicMBps)
		n.NICOut = nf.addLink(&n.nicOut, nicMBps)
		c.Nodes[id] = n
		c.Racks[rack] = append(c.Racks[rack], n)
		id++
	}

	if len(cfg.Classes) > 0 {
		for _, cl := range cfg.Classes {
			for k := 0; k < cl.Count; k++ {
				addNode(id%racks, cl.Cores, cl.VCores, cl.ContainerMemMB, cl.DiskMBps, cl.NICMBps)
			}
		}
	} else {
		for r, size := range cfg.RackSizes {
			for i := 0; i < size; i++ {
				addNode(r, cfg.CoresPerNode, cfg.VCoresPerNode, cfg.ContainerMemMB, cfg.DiskMBps, cfg.NICMBps)
			}
		}
	}
	if uplinks > 0 {
		links := make([]Link, racks)
		c.uplinks = make([]*Link, racks)
		for r := range links {
			nf := c.net
			if c.rackNets != nil {
				// The uplink throttles only its own rack's cross-rack
				// fetch share in this mode, so it lives with the rack.
				nf = c.rackNets[r]
			}
			// Listed before it is added, so that a capacity panic can
			// name it.
			c.uplinks[r] = &links[r]
			nf.addLink(c.uplinks[r], cfg.UplinkMBps)
		}
	}
	for _, n := range c.Nodes {
		c.totalMemMB += n.Mem.Capacity
	}
	return c
}

// topologyName names one of the cluster's fabrics, links or memory
// pools by its role, in O(nodes): only panics and errors need a name,
// so the topology stores none.
func (c *Cluster) topologyName(obj any) string {
	if obj == any(c.net) {
		return "network"
	}
	for r, fb := range c.rackNets {
		if obj == any(fb) {
			return fmt.Sprintf("rack%02d/network", r)
		}
	}
	for r, l := range c.uplinks {
		if obj == any(l) {
			return fmt.Sprintf("rack%d/uplink", r)
		}
	}
	for i := range c.nodes {
		n := &c.nodes[i]
		switch obj {
		case &n.mem:
			return n.Name + "/mem"
		case &n.cpu, &n.cpuLink:
			return n.Name + "/cpu"
		case &n.disk, &n.diskLink:
			return n.Name + "/disk"
		case &n.nicIn:
			return n.Name + "/nic-in"
		case &n.nicOut:
			return n.Name + "/nic-out"
		}
	}
	return ""
}

// Transfer moves mb megabytes from src to dst over the network,
// traversing src's transmit NIC, dst's receive NIC, and — when the
// nodes are on different racks — both rack uplinks. A same-node
// transfer is a memory copy and completes (asynchronously) at once.
func (c *Cluster) Transfer(src, dst *Node, mb float64, done func()) *Flow {
	if src == dst {
		return c.netFor(src).Start(nil, mb, 1e9, done) // effectively instant
	}
	if src.Rack != dst.Rack && c.rackNets != nil {
		panic(fmt.Sprintf("cluster: cross-rack transfer %s -> %s in rack-local network mode", src.Name, dst.Name))
	}
	links := []*Link{src.NICOut, dst.NICIn}
	if src.Rack != dst.Rack && len(c.uplinks) > 0 {
		links = append(links, c.uplinks[src.Rack], c.uplinks[dst.Rack])
	}
	return c.netFor(src).Start(links, mb, 0, done)
}

// Fetch starts an inbound network flow of mb megabytes terminating at
// dst whose sources are spread across many nodes (a reducer's shuffle
// wave). The senders' NICs are not modelled individually — with
// hundreds of concurrent fetch streams the receive side and the rack
// uplinks are the bottleneck — so the flow occupies dst's receive NIC
// plus, for the crossRackFrac portion, dst's rack uplink. rateCap (0 =
// none) bounds the aggregate fetch rate, modelling a limited number of
// parallel copy threads.
func (c *Cluster) Fetch(dst *Node, mb, crossRackFrac, rateCap float64, done func()) []*Flow {
	if crossRackFrac > 0 && len(c.uplinks) > 0 {
		// Split into a rack-local part and a cross-rack part; done fires
		// when both complete. The rate cap is divided pro rata.
		remaining := 2
		child := func() {
			remaining--
			if remaining == 0 && done != nil {
				done()
			}
		}
		capCross, capLocal := 0.0, 0.0
		if rateCap > 0 {
			capCross = rateCap * crossRackFrac
			capLocal = rateCap * (1 - crossRackFrac)
		}
		nf := c.netFor(dst)
		crossLinks := []*Link{dst.NICIn, c.uplinks[dst.Rack]}
		crossMB, localMB := mb*crossRackFrac, mb*(1-crossRackFrac)
		if crossMB == 0 || localMB == 0 {
			// A zero-work part completes asynchronously at once; starting
			// the parts one by one keeps that event's place in the
			// schedule.
			return []*Flow{
				nf.Start(crossLinks, crossMB, capCross, child),
				nf.Start([]*Link{dst.NICIn}, localMB, capLocal, child),
			}
		}
		// Both parts cross dst.NICIn, so the second part's component
		// already holds the first: one recompute after adding both
		// yields the rates two Starts would, since filling depends only
		// on the component's flows and advancing twice at one instant
		// moves nothing.
		cross := nf.add(crossLinks, crossMB, capCross, child)
		local := nf.add([]*Link{dst.NICIn}, localMB, capLocal, child)
		nf.recompute(crossLinks, nil)
		return []*Flow{cross, local}
	}
	return []*Flow{c.netFor(dst).Start([]*Link{dst.NICIn}, mb, rateCap, done)}
}

// netFor returns the fabric that carries flows touching n: the shared
// cluster-wide fabric normally, n's rack fabric in RackLocalNet mode.
func (c *Cluster) netFor(n *Node) *Fabric {
	if c.rackNets != nil {
		return c.rackNets[n.Rack]
	}
	return c.net
}
