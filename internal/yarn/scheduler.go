package yarn

import "repro/internal/cluster"

// FIFOScheduler serves applications in submission order, like YARN's
// capacity scheduler with a single queue.
type FIFOScheduler struct{}

// Pick implements Scheduler: the first app with a fitting request wins.
func (FIFOScheduler) Pick(apps []*App, node *cluster.Node) int {
	for i, app := range apps {
		if app.hasFittingRequest(node) {
			return i
		}
	}
	return -1
}

// FairScheduler serves the application with the smallest memory share,
// YARN's fair share policy (with equal weights) used in the paper's
// multi-tenant experiment (§8.5).
type FairScheduler struct{}

// Pick implements Scheduler.
func (FairScheduler) Pick(apps []*App, node *cluster.Node) int {
	best := -1
	var bestShare float64
	for i, app := range apps {
		if !app.hasFittingRequest(node) {
			continue
		}
		if best == -1 || app.usedMemMB < bestShare {
			best = i
			bestShare = app.usedMemMB
		}
	}
	return best
}

// hasFittingRequest reports whether any pending request fits node. It
// scans the app's distinct pending shapes rather than every request;
// fitting is purely shape-based, so the answer is identical.
func (a *App) hasFittingRequest(node *cluster.Node) bool {
	for i := range a.pendingShapes {
		if a.rm.fits(node, a.pendingShapes[i].r) {
			return true
		}
	}
	return false
}
