package yarn

import "repro/internal/cluster"

// Read-only views of RM and app state that only tests inspect.

// Blacklisted reports whether the node is currently blacklisted.
func (rm *ResourceManager) Blacklisted(n *cluster.Node) bool {
	return rm.blacklisted[n.ID]
}

// NodeDeclaredLost reports whether the node is down and its containers
// have been reclaimed.
func (rm *ResourceManager) NodeDeclaredLost(n *cluster.Node) bool {
	return n.Down() && rm.declaredLost[n.ID]
}

// RetryWakeupsScheduled returns how many relax-retry wakeup events have
// been scheduled (after coalescing).
func (rm *ResourceManager) RetryWakeupsScheduled() int { return rm.retryScheduled }

// UsedMemMB returns the memory currently allocated to the app.
func (a *App) UsedMemMB() float64 { return a.usedMemMB }

// Running returns the app's live container count.
func (a *App) Running() int { return a.running }

// Pending returns the number of unsatisfied requests.
func (a *App) Pending() int { return len(a.pending) }
