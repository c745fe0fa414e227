package yarn

import "repro/internal/cluster"

// Node liveness and blacklisting. The RM hears about crashes through
// the cluster's node-state subscription (the NodeManager heartbeat
// stream, collapsed to one edge-triggered event), but — like the real
// liveness monitor — waits NodeExpirySecs before declaring the node
// lost and reclaiming its containers. A node restored before expiry is
// still declared lost first: the restarted NodeManager resyncs with no
// live containers, so the RM must reclaim what it thought was running
// there (otherwise tasks whose flows died with the crash would wait
// forever). Blacklisting is the AM-side failure tracker: nodes hosting
// BlacklistThreshold task failures stop receiving placements until
// they next recover.

func (rm *ResourceManager) onNodeState(n *cluster.Node, down bool) {
	id := n.ID
	if down {
		rm.nodeDown[id] = true
		rm.declaredLost[id] = false
		rm.downEpoch[id]++
		epoch := rm.downEpoch[id]
		rm.eng.After(rm.NodeExpirySecs, func() {
			if rm.nodeDown[id] && rm.downEpoch[id] == epoch && !rm.declaredLost[id] {
				rm.declareNodeLost(n)
			}
		})
		return
	}
	if !rm.declaredLost[id] {
		// Restored before expiry: NM resync reports no containers, so
		// reclaim the ones the RM still has booked there.
		rm.declareNodeLost(n)
	}
	rm.nodeDown[id] = false
	rm.downEpoch[id]++
	rm.declaredLost[id] = false
	rm.nodeFailures[id] = 0
	if rm.blacklisted[id] {
		rm.blacklisted[id] = false
		rm.blackCount--
		rm.c.Faults.NodesUnblacklisted++
	}
	rm.kick()
}

// declareNodeLost reclaims every live container on the node — each
// owner is told through OnNodeLost and the container is released —
// then notifies each application master so it can handle node-scoped
// state (completed map outputs), and re-runs assignment for the freed
// demand.
func (rm *ResourceManager) declareNodeLost(n *cluster.Node) {
	rm.declaredLost[n.ID] = true
	// Collect first: Release rewrites the live lists. The reclaim order
	// is apps in rm.apps order, then placement order.
	var lost []*Container
	for _, app := range rm.apps {
		for _, c := range app.live {
			if c.Node == n && !c.released {
				lost = append(lost, c)
			}
		}
	}
	for _, c := range lost {
		rm.reclaimLost(c)
	}
	for _, app := range rm.apps {
		if app.OnNodeLost != nil {
			app.OnNodeLost(n)
		}
	}
	rm.kick()
}

// reclaimLost reclaims one container from a lost node. The owner of a
// finished app is not told: it may already have recycled the objects
// OnNodeLost would touch.
func (rm *ResourceManager) reclaimLost(c *Container) {
	if c.released {
		return
	}
	rm.c.Faults.ContainersLost++
	if c.OnNodeLost != nil && !c.App.finished {
		c.OnNodeLost(c)
	}
	if !c.released {
		rm.Release(c)
	}
}

// ReportTaskFailure records a task failure hosted on node; reaching
// BlacklistThreshold failures blacklists the node until it next
// recovers. Failures on an already-down node are ignored (the whole
// node is being handled by the loss path).
func (rm *ResourceManager) ReportTaskFailure(n *cluster.Node) {
	id := n.ID
	if rm.nodeDown[id] || rm.BlacklistThreshold <= 0 {
		return
	}
	rm.nodeFailures[id]++
	if !rm.blacklisted[id] && rm.nodeFailures[id] >= rm.BlacklistThreshold {
		rm.blacklisted[id] = true
		rm.blackCount++
		rm.c.Faults.NodesBlacklisted++
	}
}
