package hdfs

import (
	"slices"

	"repro/internal/cluster"
)

// Namenode failure handling: when a datanode dies, its replicas are
// pruned from every block immediately (the namenode learns of the
// loss via the missed heartbeat, collapsed to one event here), and
// under-replicated blocks are queued for re-replication after
// reReplicationDelaySecs. A restored node comes back empty — replicas
// it held are not resurrected; only re-replication restores the
// replication factor. onNodeState also keeps downIDs, the down set
// placement's fast path indexes around, in step with Node.Down.

// reReplicationDelaySecs is how long the namenode waits after losing
// replicas before re-replicating under-replicated blocks (a
// scaled-down dfs.namenode.replication pending window).
const reReplicationDelaySecs = 15

func (fs *FileSystem) onNodeState(n *cluster.Node, down bool) {
	// The cluster notifies only real transitions, so n is listed
	// exactly when it is coming back up.
	i, _ := slices.BinarySearch(fs.downIDs, n.ID)
	if !down {
		fs.downIDs = slices.Delete(fs.downIDs, i, i+1)
		// A fresh node is a new re-replication target: retry blocks
		// that previously had no viable destination.
		if fs.anyUnderReplicated() {
			fs.scheduleRepair()
		}
		return
	}
	fs.downIDs = slices.Insert(fs.downIDs, i, n.ID)
	lost := false
	for _, b := range fs.blocks {
		for i, r := range b.Replicas {
			if r == n {
				// Swap-delete, keeping the downed node in the backing
				// array past the new length: pending yarn.Requests alias
				// this slice as PreferredNodes (mapreduce captures
				// Split.Replicas by header), so the slot must stay a valid
				// node pointer, not nil — the scheduler tolerates a down
				// preference but not a nil one.
				last := len(b.Replicas) - 1
				b.Replicas[i], b.Replicas[last] = b.Replicas[last], b.Replicas[i]
				b.Replicas = b.Replicas[:last]
				fs.c.Faults.ReplicasLost++
				lost = true
				break
			}
		}
	}
	if lost {
		fs.scheduleRepair()
	}
}

func (fs *FileSystem) anyUnderReplicated() bool {
	for _, b := range fs.blocks {
		if len(b.Replicas) < fs.Replication && len(b.Replicas) > 0 && !b.repairing {
			return true
		}
	}
	return false
}

// scheduleRepair arms one pending repair sweep; repeated calls before
// the sweep fires coalesce.
func (fs *FileSystem) scheduleRepair() {
	if fs.repairScheduled {
		return
	}
	fs.repairScheduled = true
	fs.c.Eng.After(reReplicationDelaySecs, func() {
		fs.repairScheduled = false
		fs.repairSweep()
	})
}

// repairSweep starts one re-replication transfer per under-replicated
// block that has a live source and a viable target. Blocks with no
// live replica are permanently lost (nothing to copy from); blocks
// with no viable target wait for the next node-up event.
func (fs *FileSystem) repairSweep() {
	for _, b := range fs.blocks {
		if len(b.Replicas) >= fs.Replication || len(b.Replicas) == 0 || b.repairing {
			continue
		}
		fs.startRepair(b)
	}
}

// startRepair copies one new replica of b from its first live replica
// to a random node not already holding it: a source disk read, the
// network transfer, and the target disk write run as a pipeline. If
// either endpoint dies mid-copy the repair is rescheduled.
func (fs *FileSystem) startRepair(b *Block) {
	src := b.Replicas[0]
	dst := fs.randomNode(func(n *cluster.Node) bool {
		return !b.HasReplicaOn(n)
	})
	if dst == nil {
		return // no viable target right now; retried on node-up
	}
	b.repairing = true
	left := 3
	aborted := false
	var flows []*cluster.Flow
	child := func() {
		left--
		if left == 0 {
			b.repairing = false
			b.Replicas = append(b.Replicas, dst)
			fs.c.Faults.BlocksReReplicated++
			if len(b.Replicas) < fs.Replication {
				fs.scheduleRepair()
			}
		}
	}
	onAbort := func() {
		if aborted || left == 0 {
			return
		}
		aborted = true
		for _, f := range flows {
			f.Cancel()
		}
		b.repairing = false
		if len(b.Replicas) > 0 {
			fs.scheduleRepair()
		}
	}
	flows = []*cluster.Flow{
		src.DiskRead(b.SizeMB, child),
		fs.c.Transfer(src, dst, b.SizeMB, child),
		dst.DiskWrite(b.SizeMB, child),
	}
	for _, f := range flows {
		f.SetOnAbort(onAbort)
	}
}
