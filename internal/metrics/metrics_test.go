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

func TestMeterAverage(t *testing.T) {
	var m Meter
	m.Set(0, 1.0)
	m.Set(10, 0.0) // level 1 for 10s
	m.Set(20, 0.5) // level 0 for 10s
	// level 0.5 for 10s
	avg := m.Average(30)
	want := (1.0*10 + 0*10 + 0.5*10) / 30
	if !almostEqual(avg, want) {
		t.Fatalf("Average = %v, want %v", avg, want)
	}
}

func TestMeterAdd(t *testing.T) {
	var m Meter
	m.Add(0, 2)
	m.Add(5, 3)
	if m.Level() != 5 {
		t.Fatalf("Level = %v, want 5", m.Level())
	}
	m.Add(10, -5)
	if m.Level() != 0 {
		t.Fatalf("Level = %v, want 0", m.Level())
	}
	// integral: 2*5 + 5*5 = 35
	if !almostEqual(m.Integral(10), 35) {
		t.Fatalf("Integral = %v, want 35", m.Integral(10))
	}
}

func TestMeterPeak(t *testing.T) {
	var m Meter
	m.Set(0, 3)
	m.Set(1, 7)
	m.Set(2, 2)
	if m.Peak() != 7 {
		t.Fatalf("Peak = %v, want 7", m.Peak())
	}
}

func TestMeterEmptyAverage(t *testing.T) {
	var m Meter
	if m.Average(10) != 0 {
		t.Fatal("empty meter average should be 0")
	}
}

func TestMeterTimeBackwardsPanics(t *testing.T) {
	var m Meter
	m.Set(5, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("backwards time did not panic")
		}
	}()
	m.Set(4, 2)
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
	if s.Min() != 2 || s.Max() != 8 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if s.Sum() != 20 {
		t.Fatalf("Sum = %v", s.Sum())
	}
	wantSD := math.Sqrt((16 + 4 + 64 + 36) / 4.0 * 1.0 / 1.0)
	_ = wantSD
	// population stddev of {4,2,8,6}: mean 5, var = (1+9+9+1)/4 = 5
	if !almostEqual(s.StdDev(), math.Sqrt(5)) {
		t.Fatalf("StdDev = %v, want %v", s.StdDev(), math.Sqrt(5))
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

// Property: meter average is always between the min and max level set.
func TestMeterAverageBoundsProperty(t *testing.T) {
	f := func(levels []uint8) bool {
		if len(levels) == 0 {
			return true
		}
		var m Meter
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, l := range levels {
			v := float64(l)
			m.Set(float64(i), v)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		avg := m.Average(float64(len(levels)))
		return avg >= lo-1e-9 && avg <= hi+1e-9
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
