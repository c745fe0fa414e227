// Package hdfs models the distributed file system under the MapReduce
// substrate: block placement with rack-aware replication, locality
// classification for the scheduler, and read/write data paths that
// exercise the cluster's disk and network channels.
package hdfs

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/cluster"
)

// Locality classifies a reader's distance from a block replica.
type Locality int

const (
	NodeLocal Locality = iota
	RackLocal
	OffRack
)

func (l Locality) String() string {
	switch l {
	case NodeLocal:
		return "node-local"
	case RackLocal:
		return "rack-local"
	default:
		return "off-rack"
	}
}

// Block is one HDFS block with its replica locations. Replicas only
// ever lists live nodes: when a node crashes the namenode prunes it
// from every block and re-replicates from the survivors (see repair.go).
type Block struct {
	ID       int
	SizeMB   float64
	Replicas []*cluster.Node

	repairing bool // a re-replication transfer is in flight
	// regIdx is the block's position in the namenode registry
	// (FileSystem.blocks), maintained so Remove is O(1) per block; -1
	// once deregistered.
	regIdx int
}

// File is a sequence of blocks.
type File struct {
	Name   string
	SizeMB float64
	Blocks []*Block
}

// FileSystem is the namenode + datanode ensemble.
type FileSystem struct {
	Replication int
	// HotThreshold, when positive, enables load-aware replica
	// selection: reads prefer replicas whose disk load is below the
	// threshold and writes prefer cold targets (HDFS's slow-datanode
	// avoidance, used by MRONLINE's hot-spot policy).
	HotThreshold float64

	c       *cluster.Cluster
	rng     *rand.Rand
	nextID  int
	writeAt int // round-robin cursor for first-replica placement
	// blocks is the namenode's registry of every placed block, used
	// only by the failure path (replica pruning and re-replication).
	blocks          []*Block
	repairScheduled bool
	// scratch buffers for randomNode; the pick is consumed before the
	// next call, so the backing arrays are safe to reuse.
	scratchCand []*cluster.Node
	scratchCold []*cluster.Node
	// downIDs is the ascending list of the currently-crashed node IDs,
	// kept by onNodeState. rackContig records whether every rack's node
	// IDs form one contiguous run of the node table (true for
	// homogeneous layouts, false for interleaved node classes). With
	// load-aware selection off, rackContig gates placeReplicasInto's
	// arithmetic fast path, which indexes each candidate set as rack ID
	// runs minus downIDs instead of scanning.
	downIDs    []int
	rackContig bool
	// freeBlocks recycles Block objects (and their Replicas capacity)
	// from Removed files into new Creates, so a continuous job stream
	// stops allocating per-block state.
	freeBlocks []*Block
	// freeOps recycles finished Ops (see Op.Recycle) into later reads
	// and writes.
	freeOps []*Op
}

// New returns a file system over the cluster with the paper's layout:
// 3-way replication (capped by cluster size).
func New(c *cluster.Cluster, rng *rand.Rand) *FileSystem {
	fs := &FileSystem{Replication: min(3, len(c.Nodes)), c: c, rng: rng, rackContig: true}
	for _, r := range c.Racks {
		if len(r) == 0 || r[len(r)-1].ID-r[0].ID != len(r)-1 {
			fs.rackContig = false
			break
		}
	}
	// onNodeState tracks transitions from here on; start from the
	// nodes already down.
	for _, n := range c.Nodes {
		if n.Down() {
			fs.downIDs = append(fs.downIDs, n.ID)
		}
	}
	c.SubscribeNodeState(fs.onNodeState)
	return fs
}

// CreateWithBlockSize is Create with a per-file block size, used to
// model jobs whose input-split size differs from the filesystem
// default (the paper's corpora use ~137 MB splits).
func (fs *FileSystem) CreateWithBlockSize(name string, sizeMB, blockMB float64) *File {
	if sizeMB < 0 {
		panic(fmt.Sprintf("hdfs: negative file size %v", sizeMB))
	}
	if blockMB <= 0 {
		panic(fmt.Sprintf("hdfs: non-positive block size %v", blockMB))
	}
	f := &File{Name: name, SizeMB: sizeMB}
	remaining, nodes := sizeMB, fs.c.Nodes
	for remaining > 1e-9 {
		size := blockMB
		if remaining < size {
			size = remaining
		}
		writer := nodes[fs.writeAt%len(nodes)]
		fs.writeAt++
		for i := 0; writer.Down() && i < len(nodes); i++ {
			writer = nodes[fs.writeAt%len(nodes)]
			fs.writeAt++
		}
		var b *Block
		if n := len(fs.freeBlocks); n > 0 {
			b = fs.freeBlocks[n-1]
			fs.freeBlocks[n-1] = nil
			fs.freeBlocks = fs.freeBlocks[:n-1]
			*b = Block{Replicas: b.Replicas[:0]}
		} else {
			b = &Block{}
		}
		b.ID, b.SizeMB, b.regIdx = fs.nextID, size, len(fs.blocks)
		b.Replicas = fs.placeReplicasInto(writer, b.Replicas[:0])
		fs.nextID++
		fs.blocks = append(fs.blocks, b)
		f.Blocks = append(f.Blocks, b) //mrlint:ignore retained-append bounded by file size; Remove releases the whole File and pools its blocks
		remaining -= size
	}
	return f
}

// Remove deletes the file's blocks from the namenode registry, so a
// finished job's input stops costing failure-path scans and the
// registry stays flat over a continuous job stream. Removing a file
// twice is a no-op. Remove transfers block ownership back to the
// filesystem: the blocks are recycled into future Creates, so the
// caller must be done with them — no reads in flight and no new reads
// started (the job layer removes a file only after every task that
// read it has finished).
func (fs *FileSystem) Remove(f *File) {
	for _, b := range f.Blocks {
		i := b.regIdx
		if i < 0 || i >= len(fs.blocks) || fs.blocks[i] != b {
			continue
		}
		last := len(fs.blocks) - 1
		fs.blocks[i] = fs.blocks[last]
		fs.blocks[i].regIdx = i
		fs.blocks[last] = nil
		fs.blocks = fs.blocks[:last]
		b.regIdx = -1
		// Recycle the block unless a repair transfer still references it
		// (it would append a replica to a reused object).
		if !b.repairing {
			for j := range b.Replicas {
				b.Replicas[j] = nil
			}
			b.Replicas = b.Replicas[:0]
			fs.freeBlocks = append(fs.freeBlocks, b)
		}
	}
}

// placeReplicasInto appends the replica targets of a block written at
// first to buf (which must be empty), letting callers with recycled
// blocks reuse replica-slice capacity.
func (fs *FileSystem) placeReplicasInto(first *cluster.Node, buf []*cluster.Node) []*cluster.Node {
	if fs.HotThreshold <= 0 && fs.rackContig {
		if replicas := fs.placeReplicasFast(first, buf); replicas != nil {
			return replicas
		}
	}
	return fs.placeReplicasScan(first, buf)
}

// placeReplicasScan is the reference placement: each replica is a
// randomNode draw over a full scan of the datanode set.
func (fs *FileSystem) placeReplicasScan(first *cluster.Node, buf []*cluster.Node) []*cluster.Node {
	replicas := append(buf, first)
	if fs.Replication >= 2 {
		if second := fs.randomNode(func(n *cluster.Node) bool {
			return n.Rack != first.Rack
		}); second != nil {
			replicas = append(replicas, second)
			if fs.Replication >= 3 {
				if third := fs.randomNode(func(n *cluster.Node) bool {
					return n.Rack == second.Rack && n != second && n != first
				}); third != nil {
					replicas = append(replicas, third)
				}
			}
		} else if fs.Replication >= 2 {
			// Single-rack cluster: fall back to any other node.
			if second := fs.randomNode(func(n *cluster.Node) bool { return n != first }); second != nil {
				replicas = append(replicas, second)
			}
		}
	}
	return replicas
}

// placeReplicasFast is placeReplicasScan in O(down nodes) instead of the
// scan path's O(nodes). With load-aware selection off, the candidate
// set of each randomNode call is a run of node IDs minus one excluded
// interval and minus the down nodes, and candidates appear in ID order
// — so with contiguous per-rack ID runs the k-th candidate is found by
// stepping over the sorted exclusions (nthLive). It consumes exactly
// the same rng.Intn draws (same bounds, same order, none from an empty
// set) as the scan path and picks the same nodes, keeping same-seed
// runs byte-identical. Returns nil, having drawn nothing, when no
// off-rack node is live, so the scan path's single-rack fallback runs;
// the caller guarantees the gate conditions.
func (fs *FileSystem) placeReplicasFast(first *cluster.Node, buf []*cluster.Node) []*cluster.Node {
	if fs.Replication < 2 {
		return append(buf, first)
	}
	nodes := fs.c.Nodes
	rack := fs.c.Racks[first.Rack]
	lo, hi := rack[0].ID, rack[0].ID+len(rack)
	// Second replica: a live node outside first's rack.
	offRack := len(nodes) - len(rack) - (len(fs.downIDs) - fs.downIn(lo, hi))
	if offRack == 0 {
		return nil
	}
	second := nodes[fs.nthLive(0, fs.rng.Intn(offRack), lo, hi)]
	replicas := append(buf, first, second)
	if fs.Replication >= 3 {
		// Third replica: a live node in second's rack other than second
		// (first is in a different rack by construction).
		r2 := fs.c.Racks[second.Rack]
		lo2, hi2 := r2[0].ID, r2[0].ID+len(r2)
		if n := len(r2) - 1 - fs.downIn(lo2, hi2); n > 0 {
			third := fs.nthLive(lo2, fs.rng.Intn(n), second.ID, second.ID+1)
			replicas = append(replicas, nodes[third])
		}
	}
	return replicas
}

// downIn counts the down node IDs in [lo, hi).
func (fs *FileSystem) downIn(lo, hi int) int {
	a, _ := slices.BinarySearch(fs.downIDs, lo)
	b, _ := slices.BinarySearch(fs.downIDs, hi)
	return b - a
}

// nthLive returns the k-th (0-based) ID at or above lo, in ascending
// order, that is neither down nor inside [gapLo, gapHi). The excluded
// IDs form sorted, disjoint intervals — the gap and each down ID
// outside it — so it starts at lo+k and steps past every interval that
// begins at or before the current position.
func (fs *FileSystem) nthLive(lo, k, gapLo, gapHi int) int {
	id := lo + k
	i, _ := slices.BinarySearch(fs.downIDs, lo)
	gapDone := false
	for _, d := range fs.downIDs[i:] {
		if !gapDone && d >= gapLo {
			if gapLo > id {
				return id
			}
			id += gapHi - gapLo
			gapDone = true
		}
		if d >= gapLo && d < gapHi {
			continue
		}
		if d > id {
			return id
		}
		id++
	}
	if !gapDone && gapLo <= id {
		id += gapHi - gapLo
	}
	return id
}

func (fs *FileSystem) randomNode(ok func(*cluster.Node) bool) *cluster.Node {
	candidates, cold := fs.scratchCand[:0], fs.scratchCold[:0]
	for _, n := range fs.c.Nodes {
		if n.Down() {
			continue
		}
		if ok(n) {
			candidates = append(candidates, n)
			if !fs.hot(n) {
				cold = append(cold, n)
			}
		}
	}
	fs.scratchCand, fs.scratchCold = candidates, cold
	if len(cold) > 0 {
		candidates = cold
	}
	if len(candidates) == 0 {
		return nil
	}
	return candidates[fs.rng.Intn(len(candidates))]
}

// hot reports whether load-aware selection should avoid the node.
func (fs *FileSystem) hot(n *cluster.Node) bool {
	return fs.HotThreshold > 0 && n.DiskLoad() >= fs.HotThreshold
}

// Locality returns the best locality the reader has to any replica.
func (fs *FileSystem) Locality(b *Block, reader *cluster.Node) Locality {
	best := OffRack
	for _, r := range b.Replicas {
		switch {
		case r == reader:
			return NodeLocal
		case r.Rack == reader.Rack:
			best = RackLocal
		}
	}
	return best
}

// HasReplicaOn reports whether node holds a replica of b.
func (b *Block) HasReplicaOn(node *cluster.Node) bool {
	for _, r := range b.Replicas {
		if r == node {
			return true
		}
	}
	return false
}

func (fs *FileSystem) closestReplica(b *Block, reader *cluster.Node) *cluster.Node {
	var rackLocal, rackLocalCold, cold *cluster.Node
	for _, r := range b.Replicas {
		if !fs.hot(r) && cold == nil {
			cold = r
		}
		if r.Rack == reader.Rack {
			if rackLocal == nil {
				rackLocal = r
			}
			if !fs.hot(r) && rackLocalCold == nil {
				rackLocalCold = r
			}
		}
	}
	switch {
	case rackLocalCold != nil:
		return rackLocalCold
	case cold != nil:
		return cold
	case rackLocal != nil:
		return rackLocal
	}
	return b.Replicas[fs.rng.Intn(len(b.Replicas))]
}
