package cluster

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// refFill is a frozen copy of the uniform-increment progressive filling
// that Fabric.fill replaced: every round adds the same increment to the
// rate of every unfrozen flow, then re-tests every unfrozen flow
// against its cap and all of its links. It stays as the reference that
// the level-based fill must match bit for bit; do not "improve" it.
func refFill(flows []*Flow, links []*Link) {
	for _, l := range links {
		l.remaining = l.Capacity
		l.count = 0
	}
	active := make([]*Flow, 0, len(flows))
	for _, f := range flows {
		f.rate = 0
		active = append(active, f)
		for _, l := range f.links {
			l.count++
		}
	}
	const relEps = 1e-12
	for len(active) > 0 {
		delta := math.Inf(1)
		for _, l := range links {
			if l.count > 0 {
				if share := l.remaining / float64(l.count); share < delta {
					delta = share
				}
			}
		}
		for _, f := range active {
			if f.rateCap > 0 {
				if room := f.rateCap - f.rate; room < delta {
					delta = room
				}
			}
		}
		if math.IsInf(delta, 1) {
			break
		}
		if delta < 0 {
			delta = 0
		}
		for _, f := range active {
			f.rate += delta
		}
		for _, l := range links {
			l.remaining -= delta * float64(l.count)
		}
		for i := 0; i < len(active); {
			f := active[i]
			freeze := false
			if f.rateCap > 0 && f.rate >= f.rateCap-relEps*f.rateCap {
				freeze = true
			}
			if !freeze {
				for _, l := range f.links {
					if l.remaining <= relEps*l.Capacity {
						freeze = true
						break
					}
				}
			}
			if freeze {
				for _, l := range f.links {
					l.count--
				}
				last := len(active) - 1
				active[i] = active[last]
				active = active[:last]
			} else {
				i++
			}
		}
		if delta == 0 && len(active) > 0 {
			for _, f := range active {
				for _, l := range f.links {
					l.count--
				}
			}
			active = active[:0]
		}
	}
}

// fillCapacities mixes round and awkward link capacities with the
// smallest subnormal, whose fair share over two flows rounds to 0 and
// stalls the filling with a zero increment.
var fillCapacities = []float64{100, 117, 125, 1000.0 / 3, 0.1, 2000, 1e9, 5e-324}

// byteStream hands out the bytes of a fuzz input, then zeros.
type byteStream []byte

func (b *byteStream) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// fillTopology builds a fabric from a byte description: the link
// capacities, then per flow a link subset and a rate cap that is none,
// a fixed value, the exact fair share of one of its links (an
// exact-cap freeze), or a hair above or below that share. A flow with
// no link always gets a cap.
func fillTopology(data []byte) (*Fabric, []*Flow) {
	in := byteStream(data)
	fb := NewFabric(sim.NewEngine().SystemShard(), "fill")
	nLinks := 1 + in.next()%6
	links := make([]*Link, nLinks)
	for i := range links {
		links[i] = fb.AddLink("l", fillCapacities[in.next()%len(fillCapacities)])
	}
	nFlows := 1 + in.next()%24
	flows := make([]*Flow, 0, nFlows)
	for i := 0; i < nFlows; i++ {
		mask := in.next()
		var on []*Link
		for j, l := range links {
			if mask&(1<<j) != 0 {
				on = append(on, l)
			}
		}
		rateCap := 0.0
		switch c := in.next(); c % 6 {
		case 1:
			rateCap = []float64{2.5, 40, 58.5, 1e-300}[c/6%4]
		case 2, 3, 4:
			l := links[c/6%nLinks]
			share := l.Capacity / float64(1+c/6%5)
			rateCap = []float64{share, math.Nextafter(share, 0), math.Nextafter(share, math.Inf(1))}[c%6-2]
		}
		if len(on) == 0 && rateCap <= 0 {
			rateCap = 7
		}
		flows = append(flows, fb.add(on, 1e6, rateCap, nil))
	}
	return fb, flows
}

// checkFill runs the reference and the level-based fill on the whole
// fabric, the latter over a shuffled order of positions, and reports
// the first flow whose rates differ in any bit.
func checkFill(t *testing.T, fb *Fabric, flows []*Flow, rng *rand.Rand) {
	t.Helper()
	refFill(flows, fb.links)
	want := make([]float64, len(flows))
	for i, f := range flows {
		want[i] = f.rate
		f.rate = math.NaN()
	}
	flowIdx := make([]int32, len(flows))
	for i, f := range flows {
		flowIdx[i] = int32(f.index)
	}
	linkIdx := make([]int32, len(fb.links))
	for i, l := range fb.links {
		linkIdx[i] = l.id
	}
	rng.Shuffle(len(flowIdx), func(i, j int) { flowIdx[i], flowIdx[j] = flowIdx[j], flowIdx[i] })
	rng.Shuffle(len(linkIdx), func(i, j int) { linkIdx[i], linkIdx[j] = linkIdx[j], linkIdx[i] })
	fb.fill(flowIdx, linkIdx)
	for i, f := range flows {
		if math.Float64bits(f.rate) != math.Float64bits(want[i]) {
			t.Fatalf("flow %d (cap %v, %d links): level fill rate %v (%#x), uniform-increment rate %v (%#x)",
				i, f.rateCap, len(f.links), f.rate, math.Float64bits(f.rate), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestFillMatchesUniformIncrement: on random components with capped
// and uncapped flows, exact-cap freezes, exhausted links and
// zero-increment stalls, the level-based fill yields bit for bit the
// rates of the uniform-increment loop, whatever order the component's
// flows and links come in.
func TestFillMatchesUniformIncrement(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		data := make([]byte, 64)
		rng.Read(data)
		fb, flows := fillTopology(data)
		checkFill(t, fb, flows, rng)
	}
}

// FuzzFabricFill is TestFillMatchesUniformIncrement over fuzzed
// topologies.
func FuzzFabricFill(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 0, 1, 2, 3, 12, 3, 2, 7, 4, 1, 3, 5, 2, 2, 3, 9})
	f.Add([]byte{1, 7, 7, 9, 3, 0, 3, 0, 3, 0, 1, 13})         // subnormal link: zero-increment stall
	f.Add([]byte{2, 0, 1, 20, 1, 14, 2, 8, 3, 26, 3, 0, 0, 1}) // exact-cap freezes
	f.Fuzz(func(t *testing.T, data []byte) {
		fb, flows := fillTopology(data)
		checkFill(t, fb, flows, rand.New(rand.NewSource(int64(len(data)))))
	})
}
