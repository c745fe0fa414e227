package hdfs

import (
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/sim"
)

func newFS(t *testing.T) (*sim.Engine, *cluster.Cluster, *FileSystem) {
	t.Helper()
	eng := sim.NewEngine()
	c := cluster.New(eng, cluster.PaperConfig())
	fs := New(c, sim.NewSource(1).Stream("hdfs"))
	return eng, c, fs
}

func TestCreateBlockCount(t *testing.T) {
	_, _, fs := newFS(t)
	f := fs.Create("input", 1000)
	// 1000 MB / 128 MB = 7 full + 1 partial.
	if len(f.Blocks) != 8 {
		t.Fatalf("blocks = %d, want 8", len(f.Blocks))
	}
	total := 0.0
	for _, b := range f.Blocks {
		total += b.SizeMB
		if b.SizeMB > testBlockMB {
			t.Fatalf("block %d oversize: %v", b.ID, b.SizeMB)
		}
	}
	if total != 1000 {
		t.Fatalf("total block size = %v, want 1000", total)
	}
}

func TestReplicationPolicy(t *testing.T) {
	_, _, fs := newFS(t)
	f := fs.Create("input", 128*20)
	for _, b := range f.Blocks {
		if len(b.Replicas) != 3 {
			t.Fatalf("block %d has %d replicas, want 3", b.ID, len(b.Replicas))
		}
		r0, r1, r2 := b.Replicas[0], b.Replicas[1], b.Replicas[2]
		if r0 == r1 || r1 == r2 || r0 == r2 {
			t.Fatalf("block %d has duplicate replica nodes", b.ID)
		}
		if r0.Rack == r1.Rack {
			t.Fatalf("block %d: second replica on writer's rack", b.ID)
		}
		if r1.Rack != r2.Rack {
			t.Fatalf("block %d: third replica not on second's rack", b.ID)
		}
	}
}

func TestBlocksSpreadAcrossNodes(t *testing.T) {
	_, c, fs := newFS(t)
	f := fs.Create("input", 128*float64(len(c.Nodes)))
	firstReplicas := map[int]int{}
	for _, b := range f.Blocks {
		firstReplicas[b.Replicas[0].ID]++
	}
	if len(firstReplicas) != len(c.Nodes) {
		t.Fatalf("round-robin placement covered %d nodes, want %d", len(firstReplicas), len(c.Nodes))
	}
}

func TestLocality(t *testing.T) {
	_, c, fs := newFS(t)
	f := fs.Create("input", 128)
	b := f.Blocks[0]
	if got := fs.Locality(b, b.Replicas[0]); got != NodeLocal {
		t.Fatalf("locality on replica holder = %v, want node-local", got)
	}
	// Find a node with no replica but sharing the first replica's rack.
	for _, n := range c.Nodes {
		if b.HasReplicaOn(n) {
			continue
		}
		got := fs.Locality(b, n)
		sameRack := false
		for _, r := range b.Replicas {
			if r.Rack == n.Rack {
				sameRack = true
			}
		}
		want := OffRack
		if sameRack {
			want = RackLocal
		}
		if got != want {
			t.Fatalf("locality for node %s = %v, want %v", n.Name, got, want)
		}
	}
}

func TestLocalReadUsesOnlyDisk(t *testing.T) {
	eng, _, fs := newFS(t)
	f := fs.Create("input", 90) // one block, 90 MB
	b := f.Blocks[0]
	var done float64
	fs.StartRead(b, b.Replicas[0], func() { done = eng.Now() })
	eng.Run()
	// 90 MB at 90 MB/s disk = 1 s, no network involvement.
	if done < 0.99 || done > 1.01 {
		t.Fatalf("local read took %v, want ~1", done)
	}
}

func TestRemoteReadSlowerThanLocal(t *testing.T) {
	eng, c, fs := newFS(t)
	f := fs.Create("input", 117)
	b := f.Blocks[0]
	reader := remoteReader(t, c, b)
	var done float64
	fs.StartRead(b, reader, func() { done = eng.Now() })
	eng.Run()
	// Bottleneck is max(disk 117/90, net 117/117) = 1.3 s.
	if done < 1.29 || done > 1.4 {
		t.Fatalf("remote read took %v, want ~1.3", done)
	}
}

func TestWritePipeline(t *testing.T) {
	eng, c, fs := newFS(t)
	n := c.Nodes[0]
	var done float64
	op := fs.StartWrite(n, 90, func() { done = eng.Now() })
	// Three replicas: a disk write at each, and a transfer into each
	// after the first.
	if len(op.flows) != 5 {
		t.Fatalf("write pipeline has %d flows, want 5 (3 replicas)", len(op.flows))
	}
	if n.DiskLoad() != 1 {
		t.Fatal("first replica not local: the writer's disk is idle")
	}
	eng.Run()
	// Local disk write of 90 MB at 90 MB/s = 1 s; transfers at 117 MB/s
	// are faster. Expect ~1 s, certainly under 2.
	if done < 0.99 || done > 2 {
		t.Fatalf("pipelined write took %v, want ~1", done)
	}
}

func TestZeroByteWrite(t *testing.T) {
	eng, c, fs := newFS(t)
	fired := false
	fs.StartWrite(c.Nodes[0], 0, func() { fired = true })
	eng.Run()
	if !fired {
		t.Fatal("zero-byte write never completed")
	}
}

func TestDeterministicPlacement(t *testing.T) {
	_, _, fs1 := newFS(t)
	_, _, fs2 := newFS(t)
	f1 := fs1.Create("input", 128*50)
	f2 := fs2.Create("input", 128*50)
	for i := range f1.Blocks {
		for j := range f1.Blocks[i].Replicas {
			if f1.Blocks[i].Replicas[j].ID != f2.Blocks[i].Replicas[j].ID {
				t.Fatalf("placement diverged at block %d replica %d", i, j)
			}
		}
	}
}

// Property: for any file size and any cluster, replicas are distinct
// nodes, at most Replication per block, and block sizes sum to the
// file size.
func TestPlacementProperty(t *testing.T) {
	f := func(sizeRaw uint16, seed int64) bool {
		eng := sim.NewEngine()
		c := cluster.New(eng, cluster.PaperConfig())
		fs := New(c, sim.NewSource(uint64(seed)).Stream("hdfs"))
		size := float64(sizeRaw%5000) + 0.5
		file := fs.Create("f", size)
		total := 0.0
		for _, b := range file.Blocks {
			total += b.SizeMB
			if len(b.Replicas) > fs.Replication || len(b.Replicas) == 0 {
				return false
			}
			seen := map[int]bool{}
			for _, r := range b.Replicas {
				if seen[r.ID] {
					return false
				}
				seen[r.ID] = true
			}
		}
		return total > size-1e-6 && total < size+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestLocalityStrings(t *testing.T) {
	if NodeLocal.String() != "node-local" || RackLocal.String() != "rack-local" || OffRack.String() != "off-rack" {
		t.Fatal("Locality strings broken")
	}
}
