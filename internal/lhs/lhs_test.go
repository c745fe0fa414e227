package lhs

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func space2() Space {
	return Space{{Min: 0, Max: 100}, {Min: -1, Max: 1}}
}

func TestSampleCountAndBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := Sample(rng, space2(), 24)
	if len(pts) != 24 {
		t.Fatalf("got %d points, want 24", len(pts))
	}
	for _, p := range pts {
		if len(p) != 2 {
			t.Fatalf("point has %d coords", len(p))
		}
		if p[0] < 0 || p[0] > 100 || p[1] < -1 || p[1] > 1 {
			t.Fatalf("point %v out of bounds", p)
		}
	}
}

// The defining LHS property: exactly one sample per stratum per
// dimension.
func TestLatinProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := 16
	pts := Sample(rng, space2(), m)
	for d, dim := range space2() {
		seen := make([]bool, m)
		for _, p := range pts {
			stratum := int((p[d] - dim.Min) / dim.Range() * float64(m))
			if stratum == m {
				stratum = m - 1
			}
			if seen[stratum] {
				t.Fatalf("dim %d stratum %d sampled twice", d, stratum)
			}
			seen[stratum] = true
		}
	}
}

func TestSampleZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("m=0 did not panic")
		}
	}()
	Sample(rand.New(rand.NewSource(1)), space2(), 0)
}

func TestWeightedSampleSkews(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	space := Space{{Min: 0, Max: 1}}
	// Weight the top half 9x: most samples should land above 0.5.
	w := []Weights{{1, 9}}
	high := 0
	const rounds = 50
	for r := 0; r < rounds; r++ {
		pts := WeightedSample(rng, space, w, 10)
		for _, p := range pts {
			if p[0] > 0.5 {
				high++
			}
		}
	}
	frac := float64(high) / float64(rounds*10)
	if frac < 0.8 || frac > 0.95 {
		t.Fatalf("high fraction = %v, want ~0.9", frac)
	}
}

func TestWeightedNilIsUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := WeightedSample(rng, space2(), nil, 100)
	mean := 0.0
	for _, p := range pts {
		mean += p[0]
	}
	mean /= 100
	if mean < 40 || mean > 60 {
		t.Fatalf("uniform mean = %v, want ~50", mean)
	}
}

func TestUniformWeights(t *testing.T) {
	w := Weights{1, 1, 1, 1}
	// Inverse CDF of uniform weights is identity.
	for _, u := range []float64{0, 0.25, 0.5, 0.99} {
		if got := w.cdfInvert(u); math.Abs(got-u) > 1e-9 {
			t.Fatalf("cdfInvert(%v) = %v under uniform weights", u, got)
		}
	}
}

func TestNeighborhoodClamping(t *testing.T) {
	space := space2()
	nb := Neighborhood(space, []float64{0, 0}, 0.5)
	// x centered at min: [0-25, 0+25] clamps to [0, 25].
	if nb[0].Min != 0 || math.Abs(nb[0].Max-25) > 1e-9 {
		t.Fatalf("clamped x = [%v, %v], want [0, 25]", nb[0].Min, nb[0].Max)
	}
	if math.Abs(nb[1].Min+0.5) > 1e-9 || math.Abs(nb[1].Max-0.5) > 1e-9 {
		t.Fatalf("y = [%v, %v], want [-0.5, 0.5]", nb[1].Min, nb[1].Max)
	}
}

func TestNeighborhoodShrinksMonotonically(t *testing.T) {
	space := space2()
	center := []float64{50, 0}
	prev := space
	for _, size := range []float64{0.8, 0.4, 0.2, 0.1} {
		nb := Neighborhood(space, center, size)
		for d := range nb {
			if nb[d].Range() > prev[d].Range()+1e-9 {
				t.Fatalf("neighborhood grew at size %v", size)
			}
		}
		prev = nb
	}
}

// Property: weighted sampling never escapes the dimension bounds and
// the inverse CDF is monotone.
func TestWeightedBoundsProperty(t *testing.T) {
	f := func(seed int64, w1, w2, w3 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		space := Space{{Min: 10, Max: 20}}
		w := []Weights{{float64(w1), float64(w2), float64(w3)}}
		pts := WeightedSample(rng, space, w, 8)
		for _, p := range pts {
			if p[0] < 10 || p[0] > 20 {
				return false
			}
		}
		us := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
		vals := make([]float64, len(us))
		for i, u := range us {
			vals[i] = w[0].cdfInvert(u)
		}
		return sort.Float64sAreSorted(vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkWeightedSample measures sampling cost at the tuner's scale.
func BenchmarkWeightedSample(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	space := Space{
		{Min: 0, Max: 100}, {Min: 0, Max: 1},
		{Min: 512, Max: 4096}, {Min: 1, Max: 8},
	}
	w := []Weights{nil, {1, 2, 3}, nil, {3, 1}}
	for i := 0; i < b.N; i++ {
		WeightedSample(rng, space, w, 24)
	}
}
