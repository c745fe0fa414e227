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

// countRetryWakeups wraps the RM's cached relax-retry callback; the
// returned counter reads how many wakeups have fired since. Every
// wakeup is an engine event that is never canceled, so once the engine
// has drained, that is how many were scheduled.
func countRetryWakeups(rm *ResourceManager) *int {
	n := new(int)
	retry := rm.retryFn
	rm.retryFn = func() { *n++; retry() }
	return n
}

// UsedMemMB returns the memory currently allocated to the app.
func (a *App) UsedMemMB() float64 { return a.usedMemMB }

// Running returns the app's live container count.
func (a *App) Running() int { return len(a.live) }

// Pending returns the number of unsatisfied requests.
func (a *App) Pending() int { return len(a.pending) }
