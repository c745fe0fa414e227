package hdfs

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// placementRacks is a contiguous multi-rack layout with uneven racks,
// including a one-node rack (a second replica there has no third).
var placementRacks = []int{6, 4, 1, 7, 3}

func newPlacementFS(t *testing.T) (*cluster.Cluster, *FileSystem) {
	t.Helper()
	cfg := cluster.PaperConfig()
	cfg.RackSizes = placementRacks
	c := cluster.New(sim.NewEngine(), cfg)
	fs := New(c, sim.NewSource(1).Stream("hdfs"))
	if !fs.rackContig {
		t.Fatal("test layout should have contiguous racks")
	}
	return c, fs
}

// setDown makes exactly the nodes in down crashed, through the cluster's
// kill/restore path so the namenode's own down list is what gets tested.
func setDown(c *cluster.Cluster, down map[int]bool) {
	for _, n := range c.Nodes {
		if down[n.ID] {
			c.KillNode(n)
		} else {
			c.RestoreNode(n)
		}
	}
}

// liveOffRack counts live nodes outside first's rack.
func liveOffRack(c *cluster.Cluster, first *cluster.Node) int {
	count := 0
	for _, n := range c.Nodes {
		if n.Rack != first.Rack && !n.Down() {
			count++
		}
	}
	return count
}

// checkFastMatchesScan places first's replicas with the fast path and
// with the scan path from identically seeded RNGs and requires the same
// nodes and the same RNG state afterwards. When the fast path declines
// (nil), it must have drawn nothing and no off-rack node may be live.
func checkFastMatchesScan(t *testing.T, c *cluster.Cluster, fs *FileSystem, first *cluster.Node, seed int64) {
	t.Helper()
	fast := rand.New(rand.NewSource(seed))
	scan := rand.New(rand.NewSource(seed))
	fs.rng = fast
	got := fs.placeReplicasFast(first, nil)
	fs.rng = scan
	want := fs.placeReplicasScan(first, nil)
	if got == nil {
		if n := liveOffRack(c, first); n != 0 {
			t.Fatalf("first=%d: fast path declined with %d live off-rack nodes", first.ID, n)
		}
		if fast.Int63() != rand.New(rand.NewSource(seed)).Int63() {
			t.Fatalf("first=%d: fast path drew before declining", first.ID)
		}
		return
	}
	if len(got) != len(want) {
		t.Fatalf("first=%d seed=%d: fast placed %v, scan placed %v", first.ID, seed, ids(got), ids(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("first=%d seed=%d: fast placed %v, scan placed %v", first.ID, seed, ids(got), ids(want))
		}
	}
	if fast.Int63() != scan.Int63() {
		t.Fatalf("first=%d seed=%d: RNG state diverged after placement", first.ID, seed)
	}
}

func ids(ns []*cluster.Node) []int {
	out := make([]int, len(ns))
	for i, n := range ns {
		out[i] = n.ID
	}
	return out
}

func checkAllFirsts(t *testing.T, c *cluster.Cluster, fs *FileSystem) {
	t.Helper()
	for _, first := range c.Nodes {
		for seed := int64(1); seed <= 4; seed++ {
			checkFastMatchesScan(t, c, fs, first, seed)
		}
	}
}

// rackIDs returns rack r's node IDs.
func rackIDs(c *cluster.Cluster, r int) []int {
	return ids(c.Racks[r])
}

func downSet(idLists ...[]int) map[int]bool {
	m := map[int]bool{}
	for _, l := range idLists {
		for _, id := range l {
			m[id] = true
		}
	}
	return m
}

func TestPlaceReplicasFastMatchesScanEdgeCases(t *testing.T) {
	c, fs := newPlacementFS(t)
	last := len(c.Nodes) - 1
	var boundaries []int
	for r := range c.Racks {
		rack := rackIDs(c, r)
		boundaries = append(boundaries, rack[0], rack[len(rack)-1])
	}
	// Every node of rack 3 down except its middle node: a second replica
	// there must skip to that node's neighbours for the third.
	r3 := rackIDs(c, 3)
	allButOne := append(append([]int{}, r3[:3]...), r3[4:]...)
	// Only rack 3's survivor is live off rack 0: the second replica of a
	// rack-0 writer must be it, and its third has no candidate at all.
	var onlySurvivor []int
	for _, n := range c.Nodes {
		if n.Rack != 0 && n.ID != r3[3] {
			onlySurvivor = append(onlySurvivor, n.ID)
		}
	}
	cases := []struct {
		name string
		down map[int]bool
	}{
		{"none down", downSet()},
		{"first rack wholly down", downSet(rackIDs(c, 0))},
		{"second rack down but second", downSet(allButOne)},
		{"single live off-rack node", downSet(onlySurvivor)},
		{"no live off-rack node", downSet(rackIDs(c, 1), rackIDs(c, 2), rackIDs(c, 3), rackIDs(c, 4))},
		{"rack boundaries down", downSet(boundaries)},
		{"node 0 and last node down", downSet([]int{0, last})},
		{"all down", downSet(ids(c.Nodes))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			setDown(c, tc.down)
			if len(fs.downIDs) != len(tc.down) {
				t.Fatalf("namenode tracks %d down nodes, want %d", len(fs.downIDs), len(tc.down))
			}
			checkAllFirsts(t, c, fs)
		})
	}
	setDown(c, nil)
	if len(fs.downIDs) != 0 {
		t.Fatalf("namenode still tracks %v as down after every restore", fs.downIDs)
	}
}

func TestPlaceReplicasFastMatchesScanRandomDownSets(t *testing.T) {
	c, fs := newPlacementFS(t)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		density := []float64{0.05, 0.2, 0.5, 0.8, 0.95}[trial%5]
		down := map[int]bool{}
		for _, n := range c.Nodes {
			if rng.Float64() < density {
				down[n.ID] = true
			}
		}
		setDown(c, down)
		checkAllFirsts(t, c, fs)
	}
}

// TestDegradedPlacementAllocFree: with nodes down, placing into a
// reused replica buffer allocates nothing.
func TestDegradedPlacementAllocFree(t *testing.T) {
	c, fs := newPlacementFS(t)
	setDown(c, downSet([]int{0, 7, 11, 12, len(c.Nodes) - 1}))
	first := c.Nodes[3]
	buf := make([]*cluster.Node, 0, fs.Replication)
	allocs := testing.AllocsPerRun(200, func() {
		buf = fs.placeReplicasInto(first, buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("degraded placement allocates %v times per call, want 0", allocs)
	}
	if len(buf) != 3 {
		t.Fatalf("degraded placement chose %d replicas, want 3", len(buf))
	}
}
