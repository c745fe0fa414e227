package cluster

// Node failure and recovery at the hardware layer. A crash kills every
// flow touching the node — its CPU and disk fabrics and both NIC
// directions — and notifies subscribers (the HDFS namenode and the YARN
// resource manager in the full stack) so each layer can run its own
// recovery protocol. Memory accounting is NOT touched here: containers
// on the node are still "allocated" until YARN declares the node lost
// and releases them, mirroring the real RM/NM split where the RM's
// bookkeeping outlives the dead NodeManager until the liveness monitor
// expires it.

// SubscribeNodeState registers fn to be invoked whenever a node crashes
// (down=true) or is restored (down=false). Callbacks run synchronously
// from KillNode/RestoreNode, in registration order — construction order
// of the subscribing layers therefore fixes the recovery ordering and
// keeps same-seed runs reproducible. Every listener hears every node.
func (c *Cluster) SubscribeNodeState(fn func(n *Node, down bool)) {
	c.nodeListeners = append(c.nodeListeners, fn) //mrlint:ignore retained-append one subscription per layer, registered at construction
}

// KillNode crashes a node: every in-flight flow on its CPU, disk and
// NIC links is aborted (remote peers learn of it through each flow's
// OnAbort callback), the node stops accepting new work, and subscribers
// are notified. Killing an already-down node is a no-op.
func (c *Cluster) KillNode(n *Node) {
	if n.down {
		return
	}
	n.down = true
	c.Faults.NodesDowned++
	// Node-private fabrics: every flow in them belongs to this node.
	// Abort mutates the flow list by swap-removal, so drain from the
	// tail.
	for _, fb := range []*Fabric{&n.cpu, &n.disk} {
		for len(fb.flows) > 0 {
			fb.Abort(fb.flows[len(fb.flows)-1])
		}
	}
	// Network flows crossing either NIC direction: collect first, since
	// aborting rewrites the membership lists. A flow never appears on
	// both lists (same-node transfers carry no links), and Abort is
	// idempotent regardless.
	nic := make([]*Flow, 0, len(n.NICIn.flows)+len(n.NICOut.flows))
	nic = append(nic, n.NICIn.flows...)
	nic = append(nic, n.NICOut.flows...)
	for _, f := range nic {
		f.fabric.Abort(f)
	}
	for _, fn := range c.nodeListeners {
		fn(n, true)
	}
}

// RestoreNode brings a crashed node back as an empty machine: no flows,
// no replicas recovered (a real restart comes back with a wiped or
// stale disk — HDFS re-replication is what restores the data), and
// subscribers are notified so YARN can re-admit it. Restoring a live
// node is a no-op.
func (c *Cluster) RestoreNode(n *Node) {
	if !n.down {
		return
	}
	n.down = false
	c.Faults.NodesRestored++
	for _, fn := range c.nodeListeners {
		fn(n, false)
	}
}
