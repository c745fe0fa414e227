package cluster

import "repro/internal/sim"

// Constructors and read-only views that only tests use.

// Remaining returns the amount of work left, valid as of the last
// recomputation that touched this flow's component.
func (f *Flow) Remaining() float64 { return f.remaining }

// Rate returns the current fair-share rate.
func (f *Flow) Rate() float64 { return f.rate }

// Done reports whether the flow completed or was canceled.
func (f *Flow) Done() bool { return f.finished }

// NewFabric returns an empty fabric, with a workspace of its own,
// whose completion events are scheduled on eng.
func NewFabric(eng *sim.Engine, name string) *Fabric {
	fb := newFabric(&workspace{eng: eng})
	fb.ws.nameAs(fb, name)
	return fb
}

// AddLink registers a link with the fabric and returns it.
func (fb *Fabric) AddLink(name string, capacity float64) *Link {
	l := &Link{}
	fb.ws.nameAs(l, name)
	return fb.addLink(l, capacity)
}

// ActiveFlows returns the number of in-flight flows in the fabric.
func (fb *Fabric) ActiveFlows() int { return len(fb.flows) }

// NewMemPool returns a pool of capacity MB.
func NewMemPool(name string, capacity float64) *MemPool {
	p := &MemPool{ws: &workspace{}}
	p.ws.nameAs(p, name)
	p.init(capacity)
	return p
}

// CancelFlow aborts a flow previously started on this node's CPU or
// disk, or in the cluster network.
func (n *Node) CancelFlow(f *Flow) {
	if f == nil {
		return
	}
	f.fabric.Cancel(f)
}

// SameRack reports whether two nodes share a rack.
func (c *Cluster) SameRack(a, b *Node) bool { return a.Rack == b.Rack }

// NetworkFabric exposes the shared network fabric.
func (c *Cluster) NetworkFabric() *Fabric { return c.net }

// TotalVCores returns cluster-wide container vcores.
func (c *Cluster) TotalVCores() int {
	total := 0
	for _, n := range c.Nodes {
		total += n.VCores
	}
	return total
}
