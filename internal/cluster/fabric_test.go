package cluster

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/sim"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSingleFlowFullBandwidth(t *testing.T) {
	eng := sim.NewEngine()
	fb := NewFabric(eng, "test")
	l := fb.AddLink("l", 100)
	var doneAt float64 = -1
	fb.Start([]*Link{l}, 500, 0, func() { doneAt = eng.Now() })
	eng.Run()
	if !almostEqual(doneAt, 5, 1e-9) {
		t.Fatalf("flow finished at %v, want 5", doneAt)
	}
}

func TestTwoFlowsShareFairly(t *testing.T) {
	eng := sim.NewEngine()
	fb := NewFabric(eng, "test")
	l := fb.AddLink("l", 100)
	var t1, t2 float64
	fb.Start([]*Link{l}, 500, 0, func() { t1 = eng.Now() })
	fb.Start([]*Link{l}, 500, 0, func() { t2 = eng.Now() })
	eng.Run()
	// Both get 50 MB/s: both finish at t=10.
	if !almostEqual(t1, 10, 1e-9) || !almostEqual(t2, 10, 1e-9) {
		t.Fatalf("flows finished at %v, %v, want 10, 10", t1, t2)
	}
}

func TestShorterFlowReleasesBandwidth(t *testing.T) {
	eng := sim.NewEngine()
	fb := NewFabric(eng, "test")
	l := fb.AddLink("l", 100)
	var tShort, tLong float64
	fb.Start([]*Link{l}, 100, 0, func() { tShort = eng.Now() })
	fb.Start([]*Link{l}, 500, 0, func() { tLong = eng.Now() })
	eng.Run()
	// Shared 50/50 until short finishes at t=2 (100/50); long then has
	// 400 left at 100 MB/s -> finishes at t=6.
	if !almostEqual(tShort, 2, 1e-9) {
		t.Fatalf("short flow finished at %v, want 2", tShort)
	}
	if !almostEqual(tLong, 6, 1e-9) {
		t.Fatalf("long flow finished at %v, want 6", tLong)
	}
}

func TestLateArrivalSlowsExisting(t *testing.T) {
	eng := sim.NewEngine()
	fb := NewFabric(eng, "test")
	l := fb.AddLink("l", 100)
	var tA, tB float64
	fb.Start([]*Link{l}, 400, 0, func() { tA = eng.Now() })
	eng.At(2, func() {
		fb.Start([]*Link{l}, 100, 0, func() { tB = eng.Now() })
	})
	eng.Run()
	// A runs alone 0..2 (200 done), then shares 50/50. B finishes at
	// t=4 (100 at 50). A has 200-100=100 left at t=4, full rate -> t=5.
	if !almostEqual(tB, 4, 1e-9) {
		t.Fatalf("B finished at %v, want 4", tB)
	}
	if !almostEqual(tA, 5, 1e-9) {
		t.Fatalf("A finished at %v, want 5", tA)
	}
}

func TestRateCapHonored(t *testing.T) {
	eng := sim.NewEngine()
	fb := NewFabric(eng, "test")
	l := fb.AddLink("l", 100)
	var tCapped, tFree float64
	fb.Start([]*Link{l}, 100, 10, func() { tCapped = eng.Now() })
	fb.Start([]*Link{l}, 450, 0, func() { tFree = eng.Now() })
	eng.Run()
	// Capped flow: 10 MB/s -> t=10. Free flow gets 90 MB/s -> t=5.
	if !almostEqual(tCapped, 10, 1e-9) {
		t.Fatalf("capped flow finished at %v, want 10", tCapped)
	}
	if !almostEqual(tFree, 5, 1e-9) {
		t.Fatalf("free flow finished at %v, want 5", tFree)
	}
}

func TestMultiLinkBottleneck(t *testing.T) {
	eng := sim.NewEngine()
	fb := NewFabric(eng, "test")
	fast := fb.AddLink("fast", 100)
	slow := fb.AddLink("slow", 20)
	var done float64
	fb.Start([]*Link{fast, slow}, 100, 0, func() { done = eng.Now() })
	eng.Run()
	if !almostEqual(done, 5, 1e-9) {
		t.Fatalf("flow through slow link finished at %v, want 5", done)
	}
}

func TestCrossLinkMaxMin(t *testing.T) {
	// Flow X uses links A and B; flow Y uses only A; flow Z uses only B.
	// A and B both 100. Max-min: X gets 50 on both, Y gets 50 on A,
	// Z gets 50 on B.
	eng := sim.NewEngine()
	fb := NewFabric(eng, "test")
	a := fb.AddLink("a", 100)
	b := fb.AddLink("b", 100)
	var tX, tY, tZ float64
	fb.Start([]*Link{a, b}, 50, 0, func() { tX = eng.Now() })
	fb.Start([]*Link{a}, 50, 0, func() { tY = eng.Now() })
	fb.Start([]*Link{b}, 50, 0, func() { tZ = eng.Now() })
	eng.Run()
	if !almostEqual(tX, 1, 1e-9) || !almostEqual(tY, 1, 1e-9) || !almostEqual(tZ, 1, 1e-9) {
		t.Fatalf("finish times %v %v %v, want all 1", tX, tY, tZ)
	}
}

func TestAsymmetricMaxMin(t *testing.T) {
	// Link a=100 shared by X (a only) and W (a+b), b=30 shared by W.
	// W is bottlenecked at b: W gets 30, X gets 70.
	eng := sim.NewEngine()
	fb := NewFabric(eng, "test")
	a := fb.AddLink("a", 100)
	b := fb.AddLink("b", 30)
	// Keep b saturated with another flow so W's share on b is 15:
	// flows on b: W and V -> 15 each. X on a gets 100-15=85.
	var tX float64
	fb.Start([]*Link{a, b}, 150, 0, nil)                   // W
	fb.Start([]*Link{b}, 1e9, 0, nil)                      // V keeps b busy forever
	fb.Start([]*Link{a}, 85, 0, func() { tX = eng.Now() }) // X
	eng.RunUntil(1.0001)
	if !almostEqual(tX, 1, 1e-6) {
		t.Fatalf("X finished at %v, want 1 (85 MB at 85 MB/s)", tX)
	}
}

func TestCancelFlow(t *testing.T) {
	eng := sim.NewEngine()
	fb := NewFabric(eng, "test")
	l := fb.AddLink("l", 100)
	fired := false
	var tOther float64
	f := fb.Start([]*Link{l}, 1000, 0, func() { fired = true })
	fb.Start([]*Link{l}, 100, 0, func() { tOther = eng.Now() })
	eng.At(1, func() { fb.Cancel(f) })
	eng.Run()
	if fired {
		t.Fatal("canceled flow's done callback fired")
	}
	// Other flow: 50 MB/s for 1s (50 done), then 100 MB/s -> t=1.5.
	if !almostEqual(tOther, 1.5, 1e-9) {
		t.Fatalf("other flow finished at %v, want 1.5", tOther)
	}
}

func TestZeroWorkCompletesImmediately(t *testing.T) {
	eng := sim.NewEngine()
	fb := NewFabric(eng, "test")
	l := fb.AddLink("l", 100)
	var done float64 = -1
	fb.Start([]*Link{l}, 0, 0, func() { done = eng.Now() })
	eng.Run()
	if done != 0 {
		t.Fatalf("zero-work flow finished at %v, want 0", done)
	}
}

// TestRecycledZeroWorkFlowNotHijacked: a canceled zero-work flow still
// has its completion event queued, so Recycle must not pool it. If it
// did, the next Start would reuse the object, the stale event would
// fire the canceled flow's done and mark the new flow finished, and the
// new flow would never complete nor leave the fabric. Once the event
// has fired, the flow is pooled like any other.
func TestRecycledZeroWorkFlowNotHijacked(t *testing.T) {
	eng := sim.NewEngine()
	fb := NewFabric(eng, "test")
	l := fb.AddLink("l", 100)
	canceledFired := false
	var newDone []float64
	z := fb.Start([]*Link{l}, 0, 0, func() { canceledFired = true })
	z.Cancel()
	z.Recycle()
	fb.Start([]*Link{l}, 10, 0, func() { newDone = append(newDone, eng.Now()) })
	eng.Run()
	if canceledFired {
		t.Error("the canceled zero-work flow's done fired")
	}
	if len(newDone) != 1 || newDone[0] != 0.1 {
		t.Errorf("the flow started after the recycle completed at %v, want once at 0.1", newDone)
	}
	if n := fb.ActiveFlows(); n != 0 {
		t.Errorf("%d flows left in the fabric after the run, want 0", n)
	}

	z.Recycle() // its event has fired now
	zeroDone := 0
	if again := fb.Start([]*Link{l}, 0, 0, func() { zeroDone++ }); again != z {
		t.Error("a zero-work flow whose event had fired was not reused")
	}
	eng.Run()
	if zeroDone != 1 {
		t.Errorf("the reused zero-work flow completed %d times, want once", zeroDone)
	}
}

// TestPooledFlowCycleAllocationFree: once the pool, the event free
// list and the scratch buffers are warm, starting a flow, running it to
// completion and recycling it allocates nothing — also when, in a
// cluster, the flow hops between a node's CPU and disk fabrics through
// the free list they share.
func TestPooledFlowCycleAllocationFree(t *testing.T) {
	eng := sim.NewEngine()
	fb := NewFabric(eng, "test")
	links := []*Link{fb.AddLink("a", 100), fb.AddLink("b", 50)}
	fb.Start(links[1:], 1e12, 0, nil) // standing load, so the cycle changes a shared link's rates
	done := 0
	onDone := func() { done++ }
	cycle := func() {
		f := fb.Start(links, 10, 30, onDone)
		eng.RunUntil(eng.Now() + 1)
		f.Recycle()
	}
	cycle()
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Errorf("warm Start/complete/Recycle cycle allocates %v per run, want 0", a)
	}
	if done != 102 {
		t.Fatalf("%d flows completed, want 102", done)
	}

	eng, c := newTestCluster(t)
	n := c.Nodes[0]
	done = 0
	var cpuFlow, diskFlow *Flow
	hop := func() {
		cpuFlow = n.Compute(10, 1, onDone)
		eng.RunUntil(eng.Now() + 10)
		cpuFlow.Recycle()
		diskFlow = n.DiskWrite(10, onDone)
		eng.RunUntil(eng.Now() + 10)
		diskFlow.Recycle()
	}
	hop()
	if diskFlow != cpuFlow {
		t.Fatal("the disk fabric did not reuse the flow recycled on the CPU fabric")
	}
	if a := testing.AllocsPerRun(100, hop); a != 0 {
		t.Errorf("warm CPU/disk hop allocates %v per run, want 0", a)
	}
	if done != 2*102 {
		t.Fatalf("%d flows completed in the hop, want %d", done, 2*102)
	}
}

// TestFlowReusedAcrossFabrics: a flow recycled on a node's CPU fabric
// and reused by the network completes exactly as a fresh flow does.
// The setup replays the collision that an epoch per fabric would hit
// without clearing stamps on recycle: the flow's last sweep is the CPU
// fabric's 101st recompute, and the network Start is the network's
// 101st. With one epoch per cluster the stamp is below every later
// sweep, so the Start still sweeps the flow in and gives it a rate.
func TestFlowReusedAcrossFabrics(t *testing.T) {
	run := func(recycle bool) (end float64, reused bool) {
		eng, c := newTestCluster(t)
		n0, n1, n2 := c.Nodes[0], c.Nodes[1], c.Nodes[2]
		// 51 CPU flows: a Start and a completion recompute each, the
		// last Start being the CPU fabric's 101st.
		var f *Flow
		for i := 0; i < 51; i++ {
			f = n0.Compute(1, 1, nil)
			eng.Run()
			if recycle {
				f.Recycle()
			}
		}
		// 100 rebalances of an idle link, so the Start below is the
		// network's 101st recompute.
		net := c.NetworkFabric()
		idle := n2.NICIn
		for i := 0; i < 100; i++ {
			net.SetCapacity(idle, idle.Capacity+1)
		}
		end = -1
		g := net.Start([]*Link{n0.NICOut, n1.NICIn}, 2*n0.NICOut.Capacity, 0, func() { end = eng.Now() })
		eng.Run()
		return end, g == f
	}
	fresh, reused := run(false)
	if reused || fresh < 0 {
		t.Fatalf("fresh run: reused=%v end=%v, want a fresh flow that completes", reused, fresh)
	}
	end, reused := run(true)
	if !reused {
		t.Fatal("the network Start did not reuse the flow recycled on the CPU fabric")
	}
	if end != fresh {
		t.Fatalf("reused flow completed at %v, want %v as a fresh flow does", end, fresh)
	}
}

// TestClusterFabricsShareScratch: a cluster's fabrics recompute in one
// scratch workspace. Once one node's disk fabric has grown it, a Start
// and completion on another node's never-used fabric allocates
// nothing. The test pre-sizes only that fabric's own flow list and its
// link's membership list, which stay per fabric and per link.
func TestClusterFabricsShareScratch(t *testing.T) {
	eng, c := newTestCluster(t)
	grow := c.Nodes[0]
	var flows []*Flow
	for i := 0; i < 3; i++ {
		flows = append(flows, grow.DiskWrite(float64(10*(i+1)), nil))
	}
	flows = append(flows, grow.InjectDiskLoad(5, 2, nil))
	eng.Run()
	for _, f := range flows {
		f.Recycle()
	}

	next := 1
	done := 0
	onDone := func() { done++ }
	cycle := func() {
		n := c.Nodes[next]
		next++
		a := n.InjectDiskLoad(5, 2, onDone) // capped, below the fair share
		b := n.DiskWrite(10, onDone)
		eng.Run()
		a.Recycle()
		b.Recycle()
	}
	for _, n := range c.Nodes[1:] {
		if n.disk.ActiveFlows() != 0 || n.diskLink.visit != 0 {
			t.Fatalf("%s's disk fabric has been used", n.Name)
		}
		n.disk.flows = make([]*Flow, 0, 2)
		n.diskLink.flows = make([]*Flow, 0, 2)
	}
	runs := len(c.Nodes) - 2 // AllocsPerRun adds one warm-up run
	if a := testing.AllocsPerRun(runs, cycle); a != 0 {
		t.Errorf("Start and completion on a never-used fabric allocate %v per run, want 0", a)
	}
	if want := 2 * (runs + 1); done != want {
		t.Fatalf("%d flows completed, want %d", done, want)
	}
}

// TestLinkUtilization reads each link's rate while flows that cross
// different links share it, and after they finish.
func TestLinkUtilization(t *testing.T) {
	eng := sim.NewEngine()
	fb := NewFabric(eng, "test")
	l := fb.AddLink("l", 100)
	m := fb.AddLink("m", 30)
	fb.Start([]*Link{l, m}, 60, 0, nil) // held to 30 by m: done at 2
	fb.Start([]*Link{l}, 240, 0, nil)   // 70, then 100 from 2: done at 3
	if !almostEqual(l.CurrentRate(), 100, 1e-9) || !almostEqual(m.CurrentRate(), 30, 1e-9) {
		t.Fatalf("rates at 0 = %v, %v, want 100, 30", l.CurrentRate(), m.CurrentRate())
	}
	eng.RunUntil(2.5)
	if !almostEqual(l.CurrentRate(), 100, 1e-9) || m.CurrentRate() != 0 {
		t.Fatalf("rates at 2.5 = %v, %v, want 100, 0", l.CurrentRate(), m.CurrentRate())
	}
	eng.Run()
	if l.CurrentRate() != 0 || eng.Now() != 3 {
		t.Fatalf("at %v the drained link reads %v, want 0 at 3", eng.Now(), l.CurrentRate())
	}
}

func TestCapOnlyFlowNoLinks(t *testing.T) {
	eng := sim.NewEngine()
	fb := NewFabric(eng, "test")
	var done float64 = -1
	fb.Start(nil, 100, 25, func() { done = eng.Now() })
	eng.Run()
	if !almostEqual(done, 4, 1e-9) {
		t.Fatalf("cap-only flow finished at %v, want 4", done)
	}
}

func TestUncappedNoLinkPanics(t *testing.T) {
	eng := sim.NewEngine()
	fb := NewFabric(eng, "test")
	defer func() {
		if recover() == nil {
			t.Fatal("no-link, no-cap flow did not panic")
		}
	}()
	fb.Start(nil, 100, 0, nil)
}

// TestForeignLinkPanics: a link registered with another fabric would
// alias one of this fabric's links in the recompute scratch.
func TestForeignLinkPanics(t *testing.T) {
	eng := sim.NewEngine()
	fb := NewFabric(eng, "test")
	fb.AddLink("own", 100)
	foreign := NewFabric(eng, "other").AddLink("theirs", 100)
	defer func() {
		if recover() == nil {
			t.Fatal("a flow over another fabric's link did not panic")
		}
	}()
	fb.Start([]*Link{foreign}, 100, 0, nil)
}

// Property: total work conserved — sum of flow works equals capacity
// integral delivered, i.e., all flows finish at times consistent with
// never exceeding the link capacity and fully using it while busy.
func TestWorkConservationProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		works := make([]float64, 0, len(sizes))
		total := 0.0
		for _, s := range sizes {
			w := float64(s%1000) + 1
			works = append(works, w)
			total += w
		}
		if len(works) == 0 {
			return true
		}
		eng := sim.NewEngine()
		fb := NewFabric(eng, "test")
		l := fb.AddLink("l", 50)
		last := 0.0
		for _, w := range works {
			fb.Start([]*Link{l}, w, 0, func() {
				if eng.Now() > last {
					last = eng.Now()
				}
			})
		}
		eng.Run()
		// All flows start at t=0 and the link is work-conserving, so the
		// last completion must be exactly total/capacity.
		return almostEqual(last, total/50, 1e-6*total)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: with per-flow caps, no completion happens earlier than
// work/cap and no later than if the flow had the link to itself plus
// waiting for all other traffic.
func TestCapBoundsProperty(t *testing.T) {
	f := func(sizes []uint16, capSeed uint8) bool {
		if len(sizes) == 0 {
			return true
		}
		eng := sim.NewEngine()
		fb := NewFabric(eng, "test")
		l := fb.AddLink("l", 80)
		type rec struct {
			work, cap float64
			at        float64
		}
		recs := make([]*rec, 0, len(sizes))
		totalWork := 0.0
		for i, s := range sizes {
			w := float64(s%500) + 1
			cap := float64((int(capSeed)+i)%40) + 1
			r := &rec{work: w, cap: cap}
			recs = append(recs, r)
			totalWork += w
			fb.Start([]*Link{l}, w, cap, func() { r.at = eng.Now() })
		}
		eng.Run()
		for _, r := range recs {
			if r.at < r.work/r.cap-1e-6 {
				return false // finished faster than its cap allows
			}
			if r.at > totalWork/80+r.work/r.cap+1e-6 {
				return false // took longer than the crude upper bound
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: under random churn (flows starting at random times, some
// canceled mid-flight), the fabric stays consistent — every
// non-canceled flow completes, no flow finishes faster than the link
// capacity allows, and no link ever carries more than its capacity.
func TestFabricChurnProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine()
		eng.MaxEvents = 1_000_000
		fb := NewFabric(eng, "churn")
		links := []*Link{fb.AddLink("a", 50), fb.AddLink("b", 80), fb.AddLink("c", 20)}
		// Every Start, completion and Cancel recomputes, and each is
		// followed by a check that no link carries more than its
		// capacity.
		over := false
		checkCapacity := func() {
			for _, l := range links {
				if l.CurrentRate() > l.Capacity+1e-6 {
					over = true
				}
			}
		}

		type rec struct {
			work     float64
			started  float64
			done     float64
			canceled bool
			flow     *Flow
		}
		var recs []*rec
		n := 20 + rng.Intn(30)
		for i := 0; i < n; i++ {
			start := rng.Float64() * 50
			work := 1 + rng.Float64()*200
			// Each flow crosses 1-2 random links.
			ls := []*Link{links[rng.Intn(len(links))]}
			if rng.Intn(2) == 0 {
				other := links[rng.Intn(len(links))]
				if other != ls[0] {
					ls = append(ls, other)
				}
			}
			r := &rec{work: work, started: start, done: -1}
			recs = append(recs, r)
			eng.At(start, func() {
				r.flow = fb.Start(ls, work, 0, func() {
					r.done = eng.Now()
					checkCapacity()
				})
				checkCapacity()
			})
			if rng.Intn(4) == 0 {
				// Cancel at a random later time.
				r.canceled = true
				eng.At(start+rng.Float64()*3, func() {
					if r.flow != nil {
						fb.Cancel(r.flow)
						checkCapacity()
					}
				})
			}
		}
		eng.Run()
		for _, r := range recs {
			if r.canceled {
				continue
			}
			if r.done < 0 {
				return false // lost flow
			}
			// No flow can beat the fastest link.
			if r.done-r.started < r.work/80-1e-6 {
				return false
			}
		}
		return !over && fb.ActiveFlows() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestCancelInsideCompletionCascade cancels a flow from inside another
// flow's done callback, while the completion's own recompute cascade is
// conceptually still in flight. The cancel must take effect before any
// stale completion event for the canceled flow can fire.
func TestCancelInsideCompletionCascade(t *testing.T) {
	eng := sim.NewEngine()
	fb := NewFabric(eng, "test")
	l := fb.AddLink("l", 100)
	var b *Flow
	bFired := false
	cDone := -1.0
	// Three-way share (100/3 each) until A completes at t=3; A's
	// callback cancels B mid-cascade; C then runs alone.
	fb.Start([]*Link{l}, 100, 0, func() { b.Cancel() })
	b = fb.Start([]*Link{l}, 1000, 0, func() { bFired = true })
	fb.Start([]*Link{l}, 200, 0, func() { cDone = eng.Now() })
	eng.Run()
	if bFired {
		t.Fatal("flow canceled mid-cascade still fired its done callback")
	}
	// C: 100/3 rate for 3s (100 done), then 100 remaining at full rate.
	if !almostEqual(cDone, 4, 1e-9) {
		t.Fatalf("C completed at %v, want 4", cDone)
	}
	if fb.ActiveFlows() != 0 {
		t.Fatalf("ActiveFlows = %d after run, want 0", fb.ActiveFlows())
	}
}

// TestSimultaneousCompletionCancel: two identical flows complete at the
// same instant and each one's callback cancels the other. Scheduling
// order breaks the tie deterministically: exactly one callback runs.
func TestSimultaneousCompletionCancel(t *testing.T) {
	eng := sim.NewEngine()
	fb := NewFabric(eng, "test")
	l := fb.AddLink("l", 100)
	fired := 0
	var a, b *Flow
	a = fb.Start([]*Link{l}, 100, 0, func() { fired++; b.Cancel() })
	b = fb.Start([]*Link{l}, 100, 0, func() { fired++; a.Cancel() })
	eng.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want exactly 1 (first completion cancels the second)", fired)
	}
	if fb.ActiveFlows() != 0 {
		t.Fatalf("ActiveFlows = %d after run, want 0", fb.ActiveFlows())
	}
}

// TestRateCapExactlyAtFairShare: a cap equal to the fair share must
// freeze the flow at exactly the cap (0 + cap == cap in float), leaving
// its rate — and therefore its completion event — bit-stable while the
// other flow runs at the identical share.
func TestRateCapExactlyAtFairShare(t *testing.T) {
	eng := sim.NewEngine()
	fb := NewFabric(eng, "test")
	l := fb.AddLink("l", 100)
	tCapped, tFree := -1.0, -1.0
	capped := fb.Start([]*Link{l}, 100, 50, func() { tCapped = eng.Now() })
	fb.Start([]*Link{l}, 300, 0, func() { tFree = eng.Now() })
	if got := capped.Rate(); got != 50.0 {
		t.Fatalf("capped rate = %v, want exactly 50", got)
	}
	eng.Run()
	if tCapped != 2.0 {
		t.Fatalf("capped flow completed at %v, want exactly 2", tCapped)
	}
	// Free flow: 50 MB/s until t=2 (100 done), then alone: 200 at 100.
	if !almostEqual(tFree, 4, 1e-9) {
		t.Fatalf("free flow completed at %v, want 4", tFree)
	}
}

// TestStarvedFlowResumesAndCompletes: a flow squeezed to a near-zero
// rate by heavy contention must keep a valid completion event and
// finish promptly once the contention is canceled.
func TestStarvedFlowResumesAndCompletes(t *testing.T) {
	eng := sim.NewEngine()
	fb := NewFabric(eng, "test")
	l := fb.AddLink("l", 100)
	victimDone := -1.0
	victim := fb.Start([]*Link{l}, 100, 0, func() { victimDone = eng.Now() })
	heavy := make([]*Flow, 400)
	for i := range heavy {
		heavy[i] = fb.Start([]*Link{l}, 1e12, 0, nil)
	}
	starvedRate := victim.Rate()
	if !almostEqual(starvedRate, 100.0/401, 1e-9) {
		t.Fatalf("starved rate = %v, want %v", starvedRate, 100.0/401)
	}
	eng.At(1, func() {
		for _, h := range heavy {
			h.Cancel()
		}
	})
	eng.Run()
	want := 1 + (100-starvedRate*1)/100
	if !almostEqual(victimDone, want, 1e-9) {
		t.Fatalf("victim completed at %v, want %v", victimDone, want)
	}
}

// TestUntouchedComponentKeepsExactSchedule: a flow alone on its own
// link completes at exactly work/capacity — bit-exact, not within a
// tolerance — even while a disjoint component churns, because the
// incremental recompute never touches its rate or completion event.
func TestUntouchedComponentKeepsExactSchedule(t *testing.T) {
	eng := sim.NewEngine()
	fb := NewFabric(eng, "test")
	la := fb.AddLink("a", 100)
	lb := fb.AddLink("b", 80)
	quietDone := -1.0
	fb.Start([]*Link{lb}, 400, 0, func() { quietDone = eng.Now() })
	// Churn the other component: overlapping starts and cancels on la.
	for k := 0; k < 50; k++ {
		k := k
		eng.At(0.09*float64(k), func() {
			f := fb.Start([]*Link{la}, 3, 0, nil)
			if k%3 == 0 {
				eng.After(0.05, func() { f.Cancel() })
			}
		})
	}
	eng.Run()
	if quietDone != 400.0/80 {
		t.Fatalf("quiet flow completed at %v, want exactly %v", quietDone, 400.0/80)
	}
}

// TestHotStructSizes bounds the structs the serving day keeps tens of
// thousands of (two fabrics and four links per node) or churns through
// on every task phase (flows). A field added to one of them is paid in
// resident memory on every node, so growing past a bound needs a
// reason, and the bound is changed in the same change.
func TestHotStructSizes(t *testing.T) {
	if strconv.IntSize == 32 {
		t.Skip("sizes are bounded on 64-bit builds")
	}
	for _, c := range []struct {
		name      string
		size, max uintptr
	}{
		{"Fabric", unsafe.Sizeof(Fabric{}), 64},
		{"Link", unsafe.Sizeof(Link{}), 64},
		{"Node", unsafe.Sizeof(Node{}), 512},
		{"Flow", unsafe.Sizeof(Flow{}), 192},
	} {
		if c.size > c.max {
			t.Errorf("%s is %d bytes, want at most %d", c.name, c.size, c.max)
		}
	}
}
