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

// Cluster owns the nodes and the shared network fabric. Every fabric
// (each node's CPU pool and disk, the network) schedules on the one
// engine Eng.
type Cluster struct {
	Eng   *sim.Engine
	Nodes []*Node
	Racks [][]*Node

	// Faults is the cluster-wide fault/recovery counter sheet. Every
	// layer (HDFS, YARN, MapReduce) records recovery activity here
	// through its cluster pointer. All zeros when nothing was injected.
	Faults *metrics.FaultCounters

	net *Fabric
	// uplinks holds one uplink per rack, a one-rack cluster's too: the
	// cross-rack share of a reducer's fetch passes through its rack's
	// uplink (see Fetch).
	uplinks []*Link
	// totalMemMB caches the container memory of every node; the node
	// set is fixed once the cluster is built.
	totalMemMB float64
	// fetchPairs holds, per node ID, the node's receive NIC and its
	// rack's uplink (see fetchLinks).
	fetchPairs []*Link

	// nodeListeners are notified, in registration order, when a node
	// goes down or comes back up (see SubscribeNodeState).
	nodeListeners []func(n *Node, down bool)
}

// New builds a cluster per cfg. It validates the whole config first,
// then sizes everything it builds once: all nodes live in one array.
func New(eng *sim.Engine, cfg Config) *Cluster {
	sizes, total := layout(cfg)
	// The node array, by far the largest allocation here, comes first:
	// allocated after the slices build makes, it made the day's set-up
	// time read about 1.5 times this order's in side-by-side pairs (GC
	// timing).
	nodes := make([]Node, total)
	// Every fabric recomputes in one scratch workspace and recycles
	// flows through its free list; the workspace also names the
	// topology for panics and errors.
	c := &Cluster{}
	c.build(&workspace{eng: eng, cluster: c}, nodes, cfg, sizes, nodeNames(total))
	return c
}

// layout validates cfg and returns its per-rack node counts and their
// total.
func layout(cfg Config) (sizes []int, total int) {
	racks := len(cfg.RackSizes)
	if racks == 0 {
		panic("cluster: config needs at least one rack")
	}
	if len(cfg.Classes) == 0 {
		for r, size := range cfg.RackSizes {
			if size < 0 {
				panic(fmt.Sprintf("cluster: rack %d has negative size %d", r, size))
			}
			total += size
		}
		return cfg.RackSizes, total
	}
	for _, cl := range cfg.Classes {
		if cl.Count <= 0 || cl.Cores <= 0 || cl.VCores <= 0 || cl.ContainerMemMB <= 0 {
			panic(fmt.Sprintf("cluster: invalid node class %+v", cl))
		}
		total += cl.Count
	}
	// Classes deal their nodes round-robin across the racks.
	sizes = make([]int, racks)
	for i := 0; i < total; i++ {
		sizes[i%racks]++
	}
	return sizes, total
}

// nodeNames concatenates the names of n nodes: node00, node01, ....
// Each node's name is a slice of the one string.
func nodeNames(n int) string {
	var b strings.Builder
	b.Grow(n * len(fmt.Sprintf("node%02d", n)))
	var digits [20]byte
	for id := 0; id < n; id++ {
		b.WriteString("node")
		if id < 10 {
			b.WriteByte('0')
		}
		b.Write(strconv.AppendInt(digits[:0], int64(id), 10))
	}
	return b.String()
}

// build lays out a validated cfg in c over nodes, which it numbers
// from 0 and names from names (see nodeNames). ws already lists c, so
// that a panic while building can name what it rejects.
func (c *Cluster) build(ws *workspace, nodes []Node, cfg Config, sizes []int, names string) {
	racks, total := len(sizes), len(nodes)
	c.Eng, c.Faults = ws.eng, &metrics.FaultCounters{}
	c.net = newFabric(ws)
	c.Racks = make([][]*Node, racks)
	for r := range c.Racks {
		c.Racks[r] = make([]*Node, 0, sizes[r])
	}
	c.net.links = make([]*Link, 0, 2*total+racks)
	c.Nodes = make([]*Node, total)

	id, name := 0, 0
	addNode := func(rack int, cores float64, vcores int, memMB, diskMBps, nicMBps float64) {
		n := &nodes[id]
		end := name + len("node00")
		for k := 100; k <= id; k *= 10 {
			end++
		}
		n.ID, n.Name, n.Rack = id, names[name:end], rack
		name = end
		if memMB <= 0 {
			panic(fmt.Sprintf("cluster: %s must have positive container memory, got %v", n.Name, memMB))
		}
		n.Cores, n.VCores, n.ContainerMemMB, n.cluster = cores, vcores, memMB, c
		n.cpu = Fabric{ws: ws, links: n.links[0:0:1]}
		n.cpu.addLink(&n.cpuLink, cores)
		n.disk = Fabric{ws: ws, links: n.links[1:1:2]}
		n.disk.addLink(&n.diskLink, diskMBps)
		n.NICIn = c.net.addLink(&n.nicIn, nicMBps)
		n.NICOut = c.net.addLink(&n.nicOut, nicMBps)
		c.Nodes[id] = n
		c.Racks[rack] = append(c.Racks[rack], n)
		c.totalMemMB += n.ContainerMemMB
		id++
	}

	if len(cfg.Classes) > 0 {
		for _, cl := range cfg.Classes {
			for k := 0; k < cl.Count; k++ {
				addNode(id%racks, cl.Cores, cl.VCores, cl.ContainerMemMB, cl.DiskMBps, cl.NICMBps)
			}
		}
	} else {
		for r, size := range sizes {
			for i := 0; i < size; i++ {
				addNode(r, cfg.CoresPerNode, cfg.VCoresPerNode, cfg.ContainerMemMB, cfg.DiskMBps, cfg.NICMBps)
			}
		}
	}
	links := make([]Link, racks)
	c.uplinks = make([]*Link, racks)
	for r := range links {
		// Listed before it is added, so that a capacity panic can name
		// it.
		c.uplinks[r] = &links[r]
		c.net.addLink(c.uplinks[r], cfg.UplinkMBps)
	}
}

// TotalContainerMemMB returns the container memory of every node, summed
// in node order.
func (c *Cluster) TotalContainerMemMB() float64 { return c.totalMemMB }

// topologyName names one of the cluster's fabrics or links by its
// role, in O(nodes): only panics and errors need a name, so the
// topology stores none.
func (c *Cluster) topologyName(obj any) string {
	if obj == any(c.net) {
		return "network"
	}
	for r, l := range c.uplinks {
		if obj == any(l) {
			return fmt.Sprintf("rack%d/uplink", r)
		}
	}
	for _, n := range c.Nodes {
		switch obj {
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
		return c.net.Start(nil, mb, 1e9, done) // effectively instant
	}
	links := []*Link{src.NICOut, dst.NICIn}
	if src.Rack != dst.Rack {
		links = []*Link{src.NICOut, dst.NICIn, c.uplinks[src.Rack], c.uplinks[dst.Rack]}
	}
	return c.net.Start(links, mb, 0, done)
}

// Fetch starts an inbound network flow of mb megabytes terminating at
// dst whose sources are spread across many nodes (a reducer's shuffle
// wave). The senders' NICs are not modelled individually — with
// hundreds of concurrent fetch streams the receive side and the rack
// uplinks are the bottleneck — so the flow occupies dst's receive NIC
// plus, for the crossRackFrac portion, dst's rack uplink. rateCap (0 =
// none) bounds the aggregate fetch rate, modelling a limited number of
// parallel copy threads.
//
// With crossRackFrac > 0 the fetch is two flows, a cross-rack and a
// rack-local part; otherwise it is one, and the second result is nil.
// done runs once as each flow completes, so the caller counts them.
func (c *Cluster) Fetch(dst *Node, mb, crossRackFrac, rateCap float64, done func()) (*Flow, *Flow) {
	links := c.fetchLinks(dst)
	crossLinks, localLinks := links[0:2:2], links[0:1:1]
	if crossRackFrac > 0 {
		// Split into a rack-local part and a cross-rack part. The rate
		// cap is divided pro rata.
		capCross, capLocal := 0.0, 0.0
		if rateCap > 0 {
			capCross = rateCap * crossRackFrac
			capLocal = rateCap * (1 - crossRackFrac)
		}
		nf := c.net
		crossMB, localMB := mb*crossRackFrac, mb*(1-crossRackFrac)
		if crossMB == 0 || localMB == 0 {
			// A zero-work part completes asynchronously at once; starting
			// the parts one by one keeps that event's place in the
			// schedule.
			cross := nf.Start(crossLinks, crossMB, capCross, done)
			return cross, nf.Start(localLinks, localMB, capLocal, done)
		}
		// Both parts cross dst.NICIn, so the second part's component
		// already holds the first: one recompute after adding both
		// yields the rates two Starts would, since filling depends only
		// on the component's flows and advancing twice at one instant
		// moves nothing.
		cross := nf.add(crossLinks, crossMB, capCross, done)
		local := nf.add(localLinks, localMB, capLocal, done)
		nf.recompute(crossLinks, nil)
		return cross, local
	}
	return c.net.Start(localLinks, mb, rateCap, done), nil
}

// fetchLinks returns dst's receive NIC followed by its rack's uplink,
// the links of a fetch's two parts. The pairs of every node live in
// one array, built on the first fetch, so a fetch allocates no link
// slice; no fabric mutates a flow's links.
func (c *Cluster) fetchLinks(dst *Node) []*Link {
	if c.fetchPairs == nil {
		c.fetchPairs = make([]*Link, 2*len(c.Nodes))
		for i, n := range c.Nodes {
			c.fetchPairs[2*i], c.fetchPairs[2*i+1] = n.NICIn, c.uplinks[n.Rack]
		}
	}
	return c.fetchPairs[2*dst.ID : 2*dst.ID+2]
}
