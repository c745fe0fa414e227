package hdfs

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// TestPruneKeepsAliasedReplicasNonNil pins the fix for a crash found
// by the tournament churn leg: mapreduce captures Split.Replicas by
// slice header into pending yarn.Request.PreferredNodes, so pruning a
// dead node's replica must never write nil into the backing array —
// a stale alias with the pre-prune length would hand the scheduler a
// nil node.
func TestPruneKeepsAliasedReplicasNonNil(t *testing.T) {
	eng, c, fs := newFS(t)
	f := fs.Create("input", 128*20)

	// Alias every block's replica list at its pre-crash length, the way
	// an already-issued container request does.
	aliases := make([][]*cluster.Node, len(f.Blocks))
	for i, b := range f.Blocks {
		aliases[i] = b.Replicas
	}
	victim := f.Blocks[0].Replicas[0]
	eng.At(1, func() { c.KillNode(victim) })
	eng.RunUntil(2) // before any re-replication repairs land

	for i, alias := range aliases {
		for j, n := range alias {
			if n == nil {
				t.Fatalf("block %d alias slot %d is nil after prune", f.Blocks[i].ID, j)
			}
		}
	}
}

// TestReReplicationRestoresRF kills a replica holder and checks the
// namenode re-replicates every under-replicated block back to full RF
// on surviving nodes.
func TestReReplicationRestoresRF(t *testing.T) {
	eng, c, fs := newFS(t)
	f := fs.Create("input", 128*20)

	victim := f.Blocks[0].Replicas[0]
	held := 0
	for _, b := range f.Blocks {
		if b.HasReplicaOn(victim) {
			held++
		}
	}
	if held == 0 {
		t.Fatal("victim holds no replicas")
	}

	eng.At(1, func() { c.KillNode(victim) })
	eng.Run()

	if got := c.Faults.ReplicasLost; got != held {
		t.Fatalf("ReplicasLost = %d, want %d", got, held)
	}
	if c.Faults.BlocksReReplicated != held {
		t.Fatalf("BlocksReReplicated = %d, want %d", c.Faults.BlocksReReplicated, held)
	}
	for _, b := range f.Blocks {
		if len(b.Replicas) != fs.Replication {
			t.Fatalf("block %d has %d replicas, want %d", b.ID, len(b.Replicas), fs.Replication)
		}
		if b.HasReplicaOn(victim) {
			t.Fatalf("block %d still lists the dead node", b.ID)
		}
	}
}

// TestReadFailsOverToSurvivor starts a fault-tolerant read, kills the
// serving replica mid-transfer, and checks the read completes from a
// survivor.
func TestReadFailsOverToSurvivor(t *testing.T) {
	eng, c, fs := newFS(t)
	f := fs.Create("input", 128)
	b := f.Blocks[0]

	reader := remoteReader(t, c, b)
	src := fs.closestReplica(b, reader)

	done := false
	op := fs.StartRead(b, reader, func() { done = true })
	op.OnFail = func() { t.Fatal("read reported permanent failure") }
	eng.At(0.5, func() { c.KillNode(src) })
	eng.Run()

	if !done {
		t.Fatal("read never completed after replica loss")
	}
	if c.Faults.ReadFailovers == 0 {
		t.Fatal("failover not counted")
	}
}

// TestReadFailsPermanentlyAtZeroReplicas kills every replica holder
// and checks OnFail fires instead of the read hanging forever.
func TestReadFailsPermanentlyAtZeroReplicas(t *testing.T) {
	eng, c, fs := newFS(t)
	// Shrink RF so killing all holders leaves survivors to read from.
	fs.Replication = 2
	f := fs.Create("input", 128)
	b := f.Blocks[0]

	reader := remoteReader(t, c, b)
	holders := append([]*cluster.Node(nil), b.Replicas...)

	failed := false
	op := fs.StartRead(b, reader, func() { t.Fatal("read completed without replicas") })
	op.OnFail = func() { failed = true }
	eng.At(0.5, func() {
		for _, n := range holders {
			c.KillNode(n)
		}
	})
	eng.Run()

	if !failed {
		t.Fatal("OnFail never fired for a block with zero live replicas")
	}
}

// TestRestoredNodeServesNewReplicas checks a restarted node comes back
// empty but becomes a valid re-replication target again.
func TestRestoredNodeServesNewReplicas(t *testing.T) {
	eng := sim.NewEngine()
	// 4 nodes, RF capped at 3: after one node dies, repair has exactly
	// one target; after restore, placement may use it again.
	cfg := cluster.PaperConfig()
	cfg.RackSizes = []int{2, 2}
	c := cluster.New(eng, cfg)
	fs := New(c, sim.NewSource(1).Stream("hdfs"))

	f := fs.Create("input", 128*4)
	victim := f.Blocks[0].Replicas[0]
	eng.At(1, func() { c.KillNode(victim) })
	eng.At(100, func() { c.RestoreNode(victim) })
	eng.Run()

	for _, b := range f.Blocks {
		if len(b.Replicas) != fs.Replication {
			t.Fatalf("block %d has %d replicas, want %d", b.ID, len(b.Replicas), fs.Replication)
		}
	}
	if c.Faults.NodesRestored != 1 {
		t.Fatalf("NodesRestored = %d, want 1", c.Faults.NodesRestored)
	}
}
