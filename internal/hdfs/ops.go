package hdfs

import "repro/internal/cluster"

// Fault-tolerant data-path operations. StartRead streams a block to a
// reader: a local disk read when a replica is node-local, otherwise the
// closest replica's disk read in parallel with the network transfer
// (completion when both finish, approximating the streaming
// bottleneck). StartWrite runs the replica pipeline: a local disk write
// plus, per extra replica, a network transfer and remote disk write,
// all in parallel. Either op runs in waves: if a remote replica dies
// mid-transfer, the wave is dropped and a fresh one starts against the
// surviving replicas after opRetryDelaySecs; if the op's own node (the
// reader or writer, i.e. the task's container host) dies, the op goes
// quiet and lets YARN's node-loss path requeue the whole attempt. With
// no faults injected an op creates its flows once, so fault tolerance
// costs nothing when it is not exercised.

// opRetryDelaySecs is the backoff before an op starts a fresh wave
// after a replica died mid-transfer.
const opRetryDelaySecs = 2

// Op is a cancellable, fault-tolerant block read or replica-pipeline
// write.
type Op struct {
	fs     *FileSystem
	node   *cluster.Node // the reader or the writer
	b      *Block        // the block a read streams; nil for a write
	sizeMB float64       // the bytes a write stores
	done   func()

	// OnFail, when set on a read, fires if the block becomes
	// permanently unreadable (every replica lost with no repair
	// possible), letting the owning task fail its attempt instead of
	// hanging.
	OnFail func()

	flows    []*cluster.Flow // the current wave
	left     int32           // flows of the wave still running; int32 keeps Op at 80 bytes
	finished bool
	canceled bool
	retrying bool
}

// StartRead begins streaming block b to the reader node, and survives
// source-replica failure by failing over to another replica. done
// fires exactly once, when a full copy has streamed.
func (fs *FileSystem) StartRead(b *Block, reader *cluster.Node, done func()) *Op {
	op := &Op{fs: fs, node: reader, b: b, done: done}
	op.start()
	return op
}

// StartWrite begins storing sizeMB originating at node through the
// replica pipeline, and survives the death of a downstream replica by
// rebuilding the pipeline from scratch on fresh targets.
// done fires exactly once, when every replica of a complete pipeline
// is durable.
func (fs *FileSystem) StartWrite(node *cluster.Node, sizeMB float64, done func()) *Op {
	op := &Op{fs: fs, node: node, sizeMB: sizeMB, done: done}
	op.start()
	return op
}

// start issues one wave of flows.
func (op *Op) start() {
	op.retrying = false
	if op.node.Down() {
		return // the attempt is being requeued by the node-loss path
	}
	if op.b != nil {
		op.startRead()
	} else {
		op.startWrite()
	}
	op.left = int32(len(op.flows))
	for _, f := range op.flows {
		f.SetOnAbort(op.aborted)
	}
}

func (op *Op) startRead() {
	fs, b, reader := op.fs, op.b, op.node
	if len(b.Replicas) == 0 {
		if b.repairing {
			// A repair raced the last loss; wait for it to land.
			op.retry()
			return
		}
		// Every replica is gone and nothing can restore one: the data
		// is permanently lost. Fail the op instead of hanging. Deferred
		// one event so a caller assigning OnFail right after StartRead
		// still hears about a loss detected at start time.
		op.canceled = true
		fs.c.Eng.After(0, func() {
			if op.OnFail != nil {
				op.OnFail()
			}
		})
		return
	}
	if b.HasReplicaOn(reader) {
		op.flows = append(op.flows, reader.DiskRead(b.SizeMB, op.child))
		return
	}
	src := fs.closestReplica(b, reader)
	op.flows = append(op.flows,
		src.DiskRead(b.SizeMB, op.child),
		fs.c.Transfer(src, reader, b.SizeMB, op.child),
	)
}

func (op *Op) startWrite() {
	fs := op.fs
	replicas := fs.placeReplicasInto(op.node, nil)
	if op.sizeMB == 0 {
		fs.c.Eng.After(0, func() {
			if op.finished || op.canceled {
				return
			}
			op.finished = true
			if op.done != nil {
				op.done()
			}
		})
		return
	}
	for i, r := range replicas {
		op.flows = append(op.flows, r.DiskWrite(op.sizeMB, op.child))
		if i > 0 {
			op.flows = append(op.flows, fs.c.Transfer(replicas[i-1], r, op.sizeMB, op.child))
		}
	}
}

func (op *Op) child() {
	if op.finished || op.canceled {
		return
	}
	op.left--
	if op.left == 0 {
		op.finished = true
		// Every flow of the wave has completed and the op is their sole
		// remaining holder (the fabric drops its reference on
		// completion), so hand them back to their fabrics' pools — and
		// nil the slots, so a finished op never points at a flow that
		// a later Start has reused.
		for _, f := range op.flows {
			f.Recycle()
		}
		clear(op.flows)
		op.flows = op.flows[:0]
		if op.done != nil {
			op.done()
		}
	}
}

// aborted runs when any flow of the current wave was killed by a node
// crash. Several flows can abort at the same instant (one node carried
// them all); retrying coalesces them.
func (op *Op) aborted() {
	if op.finished || op.canceled || op.retrying {
		return
	}
	for _, f := range op.flows {
		f.Cancel()
	}
	op.flows = op.flows[:0]
	if op.node.Down() {
		// The op's own node crashed: the attempt is being requeued by
		// the node-loss path, and a fresh attempt issues a fresh op.
		return
	}
	if op.b != nil {
		op.fs.c.Faults.ReadFailovers++
	} else {
		op.fs.c.Faults.WriteRestarts++
	}
	op.retry()
}

func (op *Op) retry() {
	op.retrying = true
	op.fs.c.Eng.After(opRetryDelaySecs, func() {
		if op.finished || op.canceled {
			return
		}
		op.start()
	})
}

// Cancel aborts the op; done will not fire.
func (op *Op) Cancel() {
	if op.finished || op.canceled {
		return
	}
	op.canceled = true
	for _, f := range op.flows {
		f.Cancel()
	}
	op.flows = nil
}
