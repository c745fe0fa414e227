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
// write. Ops come from a per-FileSystem free list; the owner hands a
// finished op back with Recycle.
type Op struct {
	fs     *FileSystem
	node   *cluster.Node // the reader or the writer
	b      *Block        // the block a read streams; nil for a write
	sizeMB float64       // the bytes a write stores
	done   func()

	// OnFail, when set on a read, fires if the block becomes
	// permanently unreadable (every replica lost with no repair
	// possible), letting the owning task fail its attempt instead of
	// hanging. It does not fire once the op is canceled.
	OnFail func()

	flows   []*cluster.Flow // the current wave
	targets []*cluster.Node // a write's replica targets for the current wave
	// childCB and abortCB are op.child and op.aborted, bound once when
	// the op is allocated: every flow of every wave the op object runs
	// shares them. They are safe to keep across reuse because an op is
	// recycled only after it finished, when no flow of it is running
	// and no event of it is queued (see Recycle).
	childCB  func()
	abortCB  func()
	left     int32 // flows of the wave still running
	finished bool
	canceled bool
	retrying bool
}

// newOp pops a recycled op or allocates one, and sets it up for one
// read or write.
func (fs *FileSystem) newOp(node *cluster.Node, b *Block, sizeMB float64, done func()) *Op {
	var op *Op
	if n := len(fs.freeOps); n > 0 {
		op = fs.freeOps[n-1]
		fs.freeOps[n-1] = nil
		fs.freeOps = fs.freeOps[:n-1]
	} else {
		op = &Op{fs: fs}
		op.childCB, op.abortCB = op.child, op.aborted
	}
	op.node, op.b, op.sizeMB, op.done = node, b, sizeMB, done
	return op
}

// Recycle hands a finished op back to its file system's free list for
// reuse by a later StartRead or StartWrite. Strict ownership contract,
// as for cluster.Flow.Recycle: call it only when holding the last
// reference. An op that has not finished (running, canceled, or
// waiting on a retry, a zero-size completion or an OnFail deferral) is
// left alone, because one of its events may still be queued and would
// reach the op's next owner; so are already-recycled ops. Recycle is
// therefore safe to call unconditionally on a completed owner's ops.
func (op *Op) Recycle() {
	if !op.finished {
		return
	}
	fs := op.fs
	clear(op.targets)
	*op = Op{fs: fs, flows: op.flows[:0], targets: op.targets[:0], childCB: op.childCB, abortCB: op.abortCB}
	fs.freeOps = append(fs.freeOps, op)
}

// StartRead begins streaming block b to the reader node, and survives
// source-replica failure by failing over to another replica. done
// fires exactly once, when a full copy has streamed.
func (fs *FileSystem) StartRead(b *Block, reader *cluster.Node, done func()) *Op {
	op := fs.newOp(reader, b, 0, done)
	op.start()
	return op
}

// StartWrite begins storing sizeMB originating at node through the
// replica pipeline, and survives the death of a downstream replica by
// rebuilding the pipeline from scratch on fresh targets.
// done fires exactly once, when every replica of a complete pipeline
// is durable.
func (fs *FileSystem) StartWrite(node *cluster.Node, sizeMB float64, done func()) *Op {
	op := fs.newOp(node, nil, sizeMB, done)
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
		f.SetOnAbort(op.abortCB)
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
		// is permanently lost. Fail the op instead of hanging: it starts
		// no flow, and OnFail runs unless the owner cancels the op
		// first. Deferred one event so a caller assigning OnFail right
		// after StartRead still hears about a loss detected at start
		// time. The op never finishes, so it is never recycled under
		// the queued event.
		fs.c.Eng.After(0, func() {
			if !op.canceled && op.OnFail != nil {
				op.OnFail()
			}
		})
		return
	}
	if b.HasReplicaOn(reader) {
		op.flows = append(op.flows, reader.DiskRead(b.SizeMB, op.childCB))
		return
	}
	src := fs.closestReplica(b, reader)
	op.flows = append(op.flows,
		src.DiskRead(b.SizeMB, op.childCB),
		fs.c.Transfer(src, reader, b.SizeMB, op.childCB),
	)
}

func (op *Op) startWrite() {
	fs := op.fs
	op.targets = fs.placeReplicasInto(op.node, op.targets[:0])
	if op.sizeMB == 0 {
		// Nothing to store: the wave is one zero-work flow on the
		// writer's disk, which completes one zero-delay event later.
		op.flows = append(op.flows, op.node.DiskWrite(0, op.childCB))
		return
	}
	for i, r := range op.targets {
		op.flows = append(op.flows, r.DiskWrite(op.sizeMB, op.childCB))
		if i > 0 {
			op.flows = append(op.flows, fs.c.Transfer(op.targets[i-1], r, op.sizeMB, op.childCB))
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
