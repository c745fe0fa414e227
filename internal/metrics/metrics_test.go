package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) < 1e-9
}

func TestSampleBasics(t *testing.T) {
	var s Sample
	for _, v := range []float64{4, 2, 8, 6} {
		s.Observe(v)
	}
	if s.N() != 4 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if s.Max() != 8 {
		t.Fatalf("Max = %v", s.Max())
	}
	if s.Sum() != 20 {
		t.Fatalf("Sum = %v", s.Sum())
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{10, 20, 30, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 50}, {50, 30}, {25, 20}, {80, 42},
	}
	for _, c := range cases {
		if got := Percentile(vals, c.p); !almostEqual(got, c.want) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	vals := []float64{3, 1, 2}
	Percentile(vals, 50)
	if vals[0] != 3 || vals[1] != 1 || vals[2] != 2 {
		t.Fatalf("Percentile mutated input: %v", vals)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 10) != 5 || Clamp(-1, 0, 10) != 0 || Clamp(11, 0, 10) != 10 {
		t.Fatal("Clamp misbehaved")
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		p1 := float64(a) / 255 * 100
		p2 := float64(b) / 255 * 100
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		v1 := Percentile(vals, p1)
		v2 := Percentile(vals, p2)
		lo := Percentile(vals, 0)
		hi := Percentile(vals, 100)
		return v1 <= v2 && v1 >= lo && v2 <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSamplePercentileAndValues(t *testing.T) {
	var s Sample
	for _, v := range []float64{10, 20, 30, 40, 50} {
		s.Observe(v)
	}
	if got := s.Percentile(50); got != 30 {
		t.Fatalf("Percentile(50) = %v", got)
	}
	var empty Sample
	if empty.Percentile(50) != 0 {
		t.Fatal("empty percentile should be 0")
	}
	vals := s.Values()
	vals[0] = 999
	if s.Values()[0] != 10 {
		t.Fatal("Values exposed internal slice")
	}
}

// Property: a Sample's incrementally sorted view gives exactly what
// sorting the whole sample gives, bit for bit, under any interleaving
// of Observe and Percentile — including duplicate values and the
// boundary percentiles.
func TestSamplePercentileIncrementalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// A small pool of values makes duplicates common.
		pool := make([]float64, 1+rng.Intn(12))
		for i := range pool {
			pool[i] = math.Round(rng.NormFloat64()*1000) / 8
		}
		var s Sample
		for op := 0; op < 400; op++ {
			switch r := rng.Intn(20); {
			case r < 6:
				for _, p := range []float64{0, 80, 95, 100} {
					got, want := s.Percentile(p), Percentile(s.Values(), p)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Logf("seed %d op %d: p%v = %v, full sort gives %v", seed, op, p, got, want)
						return false
					}
				}
			default:
				// Bursts exercise both the insertion and the re-sort path.
				for k := 1 + rng.Intn(1+rng.Intn(40)); k > 0; k-- {
					s.Observe(pool[rng.Intn(len(pool))])
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSamplePercentileWarmAllocationFree pins the incremental view: a
// repeated query with no new observations reuses the retained buffer.
func TestSamplePercentileWarmAllocationFree(t *testing.T) {
	var s Sample
	for i := 0; i < 500; i++ {
		s.Observe(float64(i * 7 % 101))
	}
	s.Percentile(95)
	var sink float64
	if a := testing.AllocsPerRun(100, func() { sink += s.Percentile(95) + s.Percentile(80) }); a != 0 {
		t.Errorf("warm Percentile allocates %v per run, want 0", a)
	}
	_ = sink
}
