package hdfs

import "repro/internal/cluster"

// Fault-tolerant data-path operations. StartRead and StartWrite wrap
// the plain Read/Write flow construction with failure handling: if a
// remote replica dies mid-transfer the operation restarts against the
// surviving replicas after OpRetryDelaySecs; if the local node (the
// reader or writer — i.e. the task's own container host) dies, the op
// goes quiet and lets YARN's node-loss path requeue the whole attempt.
// With no faults injected the flows created, their order, and the
// completion callbacks are identical to Read/Write, so fault tolerance
// costs nothing when it is not exercised.

// ReadOp is a cancellable, fault-tolerant block read.
type ReadOp struct {
	fs     *FileSystem
	b      *Block
	reader *cluster.Node
	done   func()

	// OnFail, when set, fires if the block becomes permanently
	// unreadable (every replica lost with no repair possible), letting
	// the owning task fail its attempt instead of hanging.
	OnFail func()

	flows    []*cluster.Flow
	left     int
	finished bool
	canceled bool
	retrying bool
}

// StartRead begins streaming block b to the reader node, like Read,
// but survives source-replica failure by failing over to another
// replica. done fires exactly once, when a full copy has streamed.
func (fs *FileSystem) StartRead(b *Block, reader *cluster.Node, done func()) *ReadOp {
	op := &ReadOp{fs: fs, b: b, reader: reader, done: done}
	op.start()
	return op
}

func (op *ReadOp) start() {
	op.retrying = false
	fs, b, reader := op.fs, op.b, op.reader
	if reader.Down() {
		return // the attempt is being requeued by the node-loss path
	}
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
		fs.sys.After(0, func() {
			if op.OnFail != nil {
				op.OnFail()
			}
		})
		return
	}
	if b.HasReplicaOn(reader) {
		f := reader.DiskRead(b.SizeMB, op.child)
		f.SetOnAbort(op.aborted)
		op.left = 1
		op.flows = append(op.flows[:0], f)
		return
	}
	src := fs.closestReplica(b, reader)
	op.left = 2
	op.flows = append(op.flows[:0],
		src.DiskRead(b.SizeMB, op.child),
		fs.c.Transfer(src, reader, b.SizeMB, op.child),
	)
	for _, f := range op.flows {
		f.SetOnAbort(op.aborted)
	}
}

func (op *ReadOp) child() {
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
// crash. Both flows of a remote read can abort at the same instant
// (the source node carried both); retrying coalesces them.
func (op *ReadOp) aborted() {
	if op.finished || op.canceled || op.retrying {
		return
	}
	for _, f := range op.flows {
		f.Cancel()
	}
	op.flows = op.flows[:0]
	if op.reader.Down() {
		// The reader itself crashed: the attempt is being requeued by
		// the node-loss path; a fresh attempt issues a fresh read.
		return
	}
	op.fs.faults.ReadFailovers++
	op.retry()
}

func (op *ReadOp) retry() {
	op.retrying = true
	op.fs.sys.After(op.fs.OpRetryDelaySecs, func() {
		if op.finished || op.canceled {
			return
		}
		op.start()
	})
}

// Cancel aborts the read; done will not fire.
func (op *ReadOp) Cancel() {
	if op.finished || op.canceled {
		return
	}
	op.canceled = true
	for _, f := range op.flows {
		f.Cancel()
	}
	op.flows = nil
}

// WriteOp is a cancellable, fault-tolerant replica-pipeline write.
type WriteOp struct {
	fs     *FileSystem
	node   *cluster.Node
	sizeMB float64
	done   func()

	flows    []*cluster.Flow
	left     int
	finished bool
	canceled bool
	retrying bool
}

// StartWrite begins storing sizeMB originating at node through the
// replica pipeline, like Write, but survives the death of a downstream
// replica by rebuilding the pipeline from scratch on fresh targets.
// done fires exactly once, when every replica of a complete pipeline
// is durable.
func (fs *FileSystem) StartWrite(node *cluster.Node, sizeMB float64, done func()) *WriteOp {
	op := &WriteOp{fs: fs, node: node, sizeMB: sizeMB, done: done}
	op.start()
	return op
}

func (op *WriteOp) start() {
	op.retrying = false
	fs := op.fs
	if op.node.Down() {
		return // the attempt is being requeued by the node-loss path
	}
	replicas := fs.placeReplicas(op.node)
	count := 0
	for i := range replicas {
		count++ // disk write at each replica
		if i > 0 {
			count++ // transfer from previous pipeline stage
		}
	}
	op.left = count
	if op.sizeMB == 0 {
		fs.sys.After(0, func() {
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
	op.flows = op.flows[:0]
	for i, r := range replicas {
		op.flows = append(op.flows, r.DiskWrite(op.sizeMB, op.child))
		if i > 0 {
			op.flows = append(op.flows, fs.c.Transfer(replicas[i-1], r, op.sizeMB, op.child))
		}
	}
	for _, f := range op.flows {
		f.SetOnAbort(op.aborted)
	}
}

func (op *WriteOp) child() {
	if op.finished || op.canceled {
		return
	}
	op.left--
	if op.left == 0 {
		op.finished = true
		// As in ReadOp.child: the pipeline's flows are all complete and
		// exclusively ours — recycle (and nil the slots) before
		// signalling completion.
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

func (op *WriteOp) aborted() {
	if op.finished || op.canceled || op.retrying {
		return
	}
	for _, f := range op.flows {
		f.Cancel()
	}
	op.flows = op.flows[:0]
	if op.node.Down() {
		// The writer crashed: the reduce attempt re-runs elsewhere and
		// re-writes its output in full.
		return
	}
	op.fs.faults.WriteRestarts++
	op.retrying = true
	op.fs.sys.After(op.fs.OpRetryDelaySecs, func() {
		if op.finished || op.canceled {
			return
		}
		op.start()
	})
}

// Cancel aborts the write; done will not fire.
func (op *WriteOp) Cancel() {
	if op.finished || op.canceled {
		return
	}
	op.canceled = true
	for _, f := range op.flows {
		f.Cancel()
	}
	op.flows = nil
}
