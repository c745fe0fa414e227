package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestStreamDeterminism(t *testing.T) {
	a := NewSource(42).Stream("alpha")
	b := NewSource(42).Stream("alpha")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-named streams diverged at draw %d", i)
		}
	}
}

func TestStreamIndependence(t *testing.T) {
	s := NewSource(42)
	a := s.Stream("alpha")
	b := s.Stream("beta")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams 'alpha' and 'beta' look correlated: %d/64 equal draws", same)
	}
}

func TestSeedSeparation(t *testing.T) {
	a := NewSource(1).Stream("x")
	b := NewSource(2).Stream("x")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced correlated streams: %d/64 equal draws", same)
	}
}

func TestSubSourceNamespacing(t *testing.T) {
	root := NewSource(7)
	s1 := root.Sub("yarn").Stream("x")
	s2 := root.Sub("mapreduce").Stream("x")
	if s1.Uint64() == s2.Uint64() && s1.Uint64() == s2.Uint64() {
		t.Fatal("sub-sources with different names produced identical streams")
	}
	r1 := root.Sub("yarn").Stream("x")
	r2 := root.Sub("yarn").Stream("x")
	for i := 0; i < 16; i++ {
		if r1.Uint64() != r2.Uint64() {
			t.Fatal("identical sub-source paths diverged")
		}
	}
}

// Property: Stream(name) output depends only on (seed, name).
func TestStreamPure(t *testing.T) {
	f := func(seed uint64, name string) bool {
		x := NewSource(seed).Stream(name).Uint64()
		y := NewSource(seed).Stream(name).Uint64()
		return x == y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// drawMix applies one draw, chosen by op, to r and returns its result
// as bits, so two generators can be compared call for call across
// every rand.Rand path the simulator uses.
func drawMix(r *rand.Rand, op byte) uint64 {
	switch op % 5 {
	case 0:
		return uint64(r.Int63())
	case 1:
		return r.Uint64()
	case 2:
		return math.Float64bits(r.NormFloat64())
	case 3:
		return uint64(r.Intn(int(op) + 1))
	default:
		return math.Float64bits(r.Float64())
	}
}

// checkStreamSource drives streamSource and math/rand's own source
// through the same calls (ops, with a re-Seed to reseed before
// ops[at]) and fails at the first differing result.
func checkStreamSource(t *testing.T, seed, reseed int64, at int, ops []byte) {
	t.Helper()
	want := rand.New(rand.NewSource(seed))
	src := &streamSource{}
	src.Seed(seed)
	got := rand.New(src)
	for i, op := range ops {
		if i == at {
			want.Seed(reseed)
			got.Seed(reseed)
		}
		if g, w := drawMix(got, op), drawMix(want, op); g != w {
			t.Fatalf("seed %d (reseed %d before draw %d): draw %d (op %d) = %#x, math/rand gives %#x",
				seed, reseed, at, i, op%5, g, w)
		}
	}
}

// TestStreamSourceMatchesStdlib pins streamSource to math/rand's
// rngSource bit for bit: seeds across the normalisation edge cases
// (0, multiples of 2³¹−1, the int64 extremes), draw counts crossing
// the lazy phase (273), the completing draw (274), the first feed
// wrap (335) and the first full register turn (607), every draw kind
// and a re-Seed partway through.
func TestStreamSourceMatchesStdlib(t *testing.T) {
	seeds := []int64{0, 1, -1, 42, int32max, -int32max, 2 * int32max, 7 * int32max,
		int32max - 1, int32max + 1, 89482311, math.MaxInt64, math.MinInt64}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		seeds = append(seeds, rng.Int63()-rng.Int63())
	}
	plain := make([]byte, 2000)
	for i := range plain {
		plain[i] = 1
	}
	mixed := make([]byte, 2000)
	rng.Read(mixed)
	for _, seed := range seeds {
		checkStreamSource(t, seed, 0, -1, plain)
		checkStreamSource(t, seed, 0, -1, mixed)
		for _, at := range []int{0, 20, 273, 274, 335, 607, 1500} {
			checkStreamSource(t, seed, seed^int64(at)*int32max, at, mixed)
		}
	}
	// StreamInto reseeds a pooled generator to Stream's exact state.
	s := NewSource(9)
	pooled := s.Stream("warm")
	for i := 0; i < 300; i++ {
		pooled.Uint64()
	}
	pooled = s.StreamInto(pooled, "job")
	fresh := rand.New(rand.NewSource(s.streamSeed("job")))
	for i := 0; i < 700; i++ {
		if g, w := pooled.Uint64(), fresh.Uint64(); g != w {
			t.Fatalf("StreamInto draw %d = %#x, math/rand gives %#x", i, g, w)
		}
	}
}

// FuzzStreamSource checks streamSource against math/rand for any seed,
// up to 2,000 draws of mixed kinds, and a re-Seed at any point.
func FuzzStreamSource(f *testing.F) {
	f.Add(int64(0), int64(int32max), uint16(274), []byte{0, 1, 2, 3, 4})
	f.Add(int64(int32max), int64(0), uint16(0), make([]byte, 700))
	f.Add(int64(math.MinInt64), int64(-1), uint16(335), []byte("lagged fibonacci"))
	f.Fuzz(func(t *testing.T, seed, reseed int64, at uint16, ops []byte) {
		if len(ops) > 2000 {
			ops = ops[:2000]
		}
		checkStreamSource(t, seed, reseed, int(at)%(len(ops)+1), ops)
	})
}

// TestStreamIntoAllocationFree pins the per-job path: reseeding a
// pooled generator and making a job's worth of draws allocates nothing.
func TestStreamIntoAllocationFree(t *testing.T) {
	s := NewSource(3)
	r := s.Stream("map-skew")
	if a := testing.AllocsPerRun(100, func() {
		r = s.StreamInto(r, "map-skew")
		for i := 0; i < 20; i++ {
			r.Float64()
		}
	}); a != 0 {
		t.Errorf("StreamInto plus 20 draws allocates %v per run, want 0", a)
	}
}

// BenchmarkStreamInto measures the per-job cost of a stream: reseed a
// pooled generator and make the ~20 draws a job makes.
func BenchmarkStreamInto(b *testing.B) {
	s := NewSource(3)
	r := s.Stream("map-skew")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r = s.StreamInto(r, "map-skew")
		for k := 0; k < 20; k++ {
			r.Float64()
		}
	}
}
