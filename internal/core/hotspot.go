package core

import (
	"repro/internal/cluster"
	"repro/internal/hdfs"
	"repro/internal/yarn"
)

// Hot-spot avoidance (paper §1: "MRONLINE considers dynamic cluster
// utilization information to help MapReduce applications avoid hot
// spots"). The monitor's node-level utilization feed becomes a
// placement veto: containers prefer nodes whose disk and CPU are not
// saturated by other tenants or background services, and HDFS prefers
// replicas on cold disks.

const (
	// hotLoad is the instantaneous CPU or disk load fraction at which
	// a node counts as hot.
	hotLoad = 0.85
	// hotSpotFallbackDelay is how long a request waits for a cold node
	// before it may place on a hot one. Interference that lasts the
	// whole job makes falling back to hot nodes never pay, so it waits
	// out cold capacity instead.
	hotSpotFallbackDelay = 600
)

// isCold is the yarn node filter of the policy.
func isCold(n *cluster.Node) bool {
	return n.CPULoad() < hotLoad && n.DiskLoad() < hotLoad
}

// EnableHotSpotAvoidance installs the policy on a resource manager and
// its file system: the node filter, the fallback delay and the HDFS
// replica threshold.
func EnableHotSpotAvoidance(rm *yarn.ResourceManager, fs *hdfs.FileSystem) {
	rm.NodeFilter = isCold
	rm.HotSpotFallbackDelay = hotSpotFallbackDelay
	fs.HotThreshold = hotLoad
}
