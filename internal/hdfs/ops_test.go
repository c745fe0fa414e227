package hdfs

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// downstreamReplica returns a node other than writer whose disk a
// just-started write pipeline is loading: a downstream replica.
func downstreamReplica(t *testing.T, c *cluster.Cluster, writer *cluster.Node) *cluster.Node {
	t.Helper()
	for _, n := range c.Nodes {
		if n != writer && n.DiskLoad() > 0 {
			return n
		}
	}
	t.Fatal("write pipeline loads no downstream disk")
	return nil
}

// remoteReader returns a node holding no replica of b.
func remoteReader(t *testing.T, c *cluster.Cluster, b *Block) *cluster.Node {
	t.Helper()
	for _, n := range c.Nodes {
		if !b.HasReplicaOn(n) {
			return n
		}
	}
	t.Fatal("every node holds a replica")
	return nil
}

// watchDisks samples every disk each 0.25 s over [from, to) and
// reports, once the run is over, whether any sample saw a flow.
func watchDisks(eng *sim.Engine, c *cluster.Cluster, from, to float64) (busy *bool) {
	busy = new(bool)
	for at := from; at < to; at += 0.25 {
		eng.At(at, func() {
			for _, n := range c.Nodes {
				*busy = *busy || n.DiskLoad() > 0
			}
		})
	}
	return busy
}

// TestWriteRestartsOnReplicaLoss kills a downstream replica mid-write
// and checks the pipeline restarts exactly once on fresh targets and
// completes exactly once, later than the same write does undisturbed.
func TestWriteRestartsOnReplicaLoss(t *testing.T) {
	eng, c, fs := newFS(t)
	var clean float64
	fs.StartWrite(c.Nodes[0], 90, func() { clean = eng.Now() })
	eng.Run()

	eng, c, fs = newFS(t)
	writer := c.Nodes[0]
	var done []float64
	fs.StartWrite(writer, 90, func() { done = append(done, eng.Now()) })
	victim := downstreamReplica(t, c, writer)
	eng.At(0.5, func() { c.KillNode(victim) })
	eng.Run()

	if got := c.Faults.WriteRestarts; got != 1 {
		t.Fatalf("WriteRestarts = %d, want 1", got)
	}
	if len(done) != 1 {
		t.Fatalf("done fired %d times, want once", len(done))
	}
	if done[0] <= clean {
		t.Fatalf("restarted write finished at %v, not after the clean write's %v", done[0], clean)
	}
}

// TestWriteQuietOnWriterCrash kills the writer itself mid-write: the
// op neither completes nor restarts, leaving the attempt to YARN's
// node-loss path.
func TestWriteQuietOnWriterCrash(t *testing.T) {
	eng, c, fs := newFS(t)
	writer := c.Nodes[0]
	fired := false
	fs.StartWrite(writer, 90, func() { fired = true })
	eng.At(0.5, func() { c.KillNode(writer) })
	eng.Run()

	if fired {
		t.Fatal("done fired for a write whose writer crashed")
	}
	if got := c.Faults.WriteRestarts; got != 0 {
		t.Fatalf("WriteRestarts = %d, want 0", got)
	}
}

// TestWriteCancelDuringBackoff cancels a write while it waits to
// restart after losing a replica: the restart never starts a flow and
// done never fires.
func TestWriteCancelDuringBackoff(t *testing.T) {
	eng, c, fs := newFS(t)
	writer := c.Nodes[0]
	fired := false
	op := fs.StartWrite(writer, 90, func() { fired = true })
	victim := downstreamReplica(t, c, writer)
	eng.At(0.5, func() { c.KillNode(victim) })
	eng.At(1, func() { op.Cancel() })
	// From the cancel until re-replication (15 s after the crash), no
	// disk may carry a flow: any would be the restarted op's.
	busy := watchDisks(eng, c, 1.25, 15)
	eng.Run()

	if *busy {
		t.Fatal("a canceled write restarted its pipeline")
	}
	if c.Faults.WriteRestarts != 1 {
		t.Fatalf("WriteRestarts = %d, want 1", c.Faults.WriteRestarts)
	}
	if fired {
		t.Fatal("done fired for a canceled write")
	}
}

// TestReadCancelDuringBackoff is TestWriteCancelDuringBackoff for a
// remote read whose source replica dies.
func TestReadCancelDuringBackoff(t *testing.T) {
	eng, c, fs := newFS(t)
	b := fs.Create("input", 128).Blocks[0]
	reader := remoteReader(t, c, b)
	src := fs.closestReplica(b, reader)
	fired := false
	op := fs.StartRead(b, reader, func() { fired = true })
	eng.At(0.5, func() { c.KillNode(src) })
	eng.At(1, func() { op.Cancel() })
	// From the cancel until re-replication (15 s after the crash), no
	// disk may carry a flow: any would be the restarted op's.
	busy := watchDisks(eng, c, 1.25, 15)
	eng.Run()

	if *busy {
		t.Fatal("a canceled read failed over to another replica")
	}
	if c.Faults.ReadFailovers != 1 {
		t.Fatalf("ReadFailovers = %d, want 1", c.Faults.ReadFailovers)
	}
	if fired {
		t.Fatal("done fired for a canceled read")
	}
}

// TestCanceledOpNotReused cancels a write while its restart is queued
// and recycles it: the op must not go back to the free list, or the
// next StartWrite would get the object and the queued restart would
// start a second wave under it. A finished op does go back, and the
// next op is that object.
func TestCanceledOpNotReused(t *testing.T) {
	eng, c, fs := newFS(t)
	writer := c.Nodes[0]
	op := fs.StartWrite(writer, 90, func() { t.Error("done fired for a canceled write") })
	victim := downstreamReplica(t, c, writer)
	eng.At(0.5, func() { c.KillNode(victim) }) // the restart is queued for 2.5
	var next *Op
	var done []float64
	eng.At(1, func() {
		op.Cancel()
		op.Recycle()
		// Long enough to still be running when the stale restart is due.
		next = fs.StartWrite(c.Nodes[1], 900, func() { done = append(done, eng.Now()) })
	})
	eng.Run()

	if next == op {
		t.Fatal("a canceled op waiting on its restart was reused")
	}
	if len(done) != 1 {
		t.Fatalf("the next write completed %d times, want once", len(done))
	}
	next.Recycle()
	if again := fs.StartWrite(c.Nodes[1], 90, nil); again != next {
		t.Error("a finished op was not reused by the next write")
	}
}

// TestCanceledZeroSizeWriteNotHijacked cancels a zero-size write before
// its zero-delay completion fires and recycles both the op and its one
// flow, as a teardown that recycles unconditionally would. The
// one-replica write after it must complete exactly when the same write
// does on a fresh file system: the queued completion must not finish
// its flow.
func TestCanceledZeroSizeWriteNotHijacked(t *testing.T) {
	oneReplicaFS := func() (*sim.Engine, *cluster.Cluster, *FileSystem) {
		eng, c, fs := newFS(t)
		fs.Replication = 1 // the local disk write is the whole pipeline
		return eng, c, fs
	}
	eng, c, fs := oneReplicaFS()
	var want float64
	fs.StartWrite(c.Nodes[0], 0, nil) // draws the same placement as the canceled write below
	fs.StartWrite(c.Nodes[0], 90, func() { want = eng.Now() })
	eng.Run()

	eng, c, fs = oneReplicaFS()
	zero := fs.StartWrite(c.Nodes[0], 0, func() { t.Error("done fired for a canceled zero-size write") })
	flow := zero.flows[0]
	zero.Cancel()
	flow.Recycle()
	zero.Recycle()
	var got []float64
	fs.StartWrite(c.Nodes[0], 90, func() { got = append(got, eng.Now()) })
	eng.Run()
	if len(got) != 1 || got[0] != want {
		t.Fatalf("the write after the canceled zero-size write completed at %v, want once at %v", got, want)
	}
}
