package sim

import (
	"hash/fnv"
	"math/rand"
)

// Source produces independent, named random streams from a single seed.
// Deriving streams by name (instead of sharing one *rand.Rand) keeps a
// simulation reproducible even when the order in which components draw
// random numbers changes.
type Source struct {
	seed uint64
}

// NewSource returns a Source rooted at seed.
func NewSource(seed uint64) *Source {
	return &Source{seed: seed}
}

// Stream returns a deterministic PRNG for the given name. Calling Stream
// twice with the same name yields streams with identical output.
func (s *Source) Stream(name string) *rand.Rand {
	return s.StreamInto(nil, name)
}

// StreamInto re-seeds r to the exact initial state Stream(name) would
// return, avoiding the ~5 KB source allocation — the path for callers
// that pool their PRNGs across a stream of jobs. A nil r allocates a
// fresh stream; either way the returned PRNG's output is identical to
// Stream(name)'s, and to rand.New(rand.NewSource(seed)) for the
// stream's derived seed. Reseeding is O(1) (see streamSource), so a
// job that draws a handful of numbers pays for those draws, not for a
// 607-word register.
func (s *Source) StreamInto(r *rand.Rand, name string) *rand.Rand {
	seed := s.streamSeed(name)
	if r == nil {
		src := &streamSource{}
		src.Seed(seed)
		return rand.New(src)
	}
	r.Seed(seed)
	return r
}

func (s *Source) streamSeed(name string) int64 {
	h := fnv.New64a()
	// Mix the seed in first so different seeds fully decorrelate streams.
	var b [8]byte
	v := s.seed
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	_, _ = h.Write(b[:])
	_, _ = h.Write([]byte(name))
	return int64(h.Sum64())
}

// Sub derives a child source, useful for giving a subsystem its own
// namespace of streams.
func (s *Source) Sub(name string) *Source {
	h := fnv.New64a()
	var b [8]byte
	v := s.seed
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	_, _ = h.Write(b[:])
	_, _ = h.Write([]byte("sub:"))
	_, _ = h.Write([]byte(name))
	return &Source{seed: h.Sum64()}
}

// Constants of math/rand's additive lagged-Fibonacci generator
// (rngSource) and of its seeding LCG x' = 48271·x mod (2³¹−1).
const (
	rngLen   = 607
	rngTap   = 273
	int32max = (1 << 31) - 1
	seedMul  = 48271
)

// seedPow[i] = 48271^(21+3i) mod (2³¹−1): rngSource.Seed advances its
// LCG 20 times, then three times per register entry, so entry i mixes
// x₂₁₊₃ᵢ, x₂₂₊₃ᵢ and x₂₃₊₃ᵢ with x_k = 48271^k·x₀.
var seedPow = func() (pow [rngLen]uint64) {
	x := uint64(1)
	for k := 0; k < 21; k++ {
		x = x * seedMul % int32max
	}
	for i := range pow {
		pow[i] = x
		x = x * seedMul % int32max * seedMul % int32max * seedMul % int32max
	}
	return pow
}()

// streamSource is a rand.Source64 whose output is bit-identical to
// math/rand's rngSource for every seed and every sequence of calls,
// but whose Seed is O(1). rngSource.Seed runs its LCG 1,841 times to
// fill all 607 register entries; streamSource instead computes entry i
// directly from the seed by jump-ahead (seedPow), and only when the
// generator first reads it. The first rngTap draws read and write
// disjoint, untouched entries (taps 606…334, feeds 333…61), so each
// computes its two on the spot; the next draw computes the 61 entries
// no draw has touched yet, after which the register is complete and
// the generator runs exactly as rngSource does.
type streamSource struct {
	tap, feed int
	// x0 is the normalised seed, x₀ of the seeding LCG.
	x0 uint64
	// lazy counts the draws left before the register must be
	// complete, plus one for the completing draw; 0 once complete.
	lazy int
	vec  [rngLen]int64
}

// Seed resets the generator to rngSource's state for seed, keeping its
// seed normalisation: seed mod (2³¹−1), with 0 mapped to 89482311.
func (s *streamSource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.lazy = rngTap + 1
}

// entry returns register entry i as rngSource.Seed leaves it.
func (s *streamSource) entry(i int) int64 {
	x := s.x0 * seedPow[i] % int32max
	u := int64(x) << 40
	x = x * seedMul % int32max
	u ^= int64(x) << 20
	x = x * seedMul % int32max
	u ^= int64(x)
	return u ^ rngCooked[i]
}

// Uint64 returns the next 64-bit value, as rngSource.Uint64. Entries
// are computed inline rather than in a helper: a call here, even one
// never taken, gives every draw a stack frame (about 1 ns).
func (s *streamSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.lazy > 0 {
		s.lazy--
		if s.lazy > 0 {
			s.vec[s.tap] = s.entry(s.tap)
			s.vec[s.feed] = s.entry(s.feed)
		} else {
			for i := 0; i < rngLen-2*rngTap; i++ {
				s.vec[i] = s.entry(i)
			}
		}
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns a non-negative 63-bit value, as rngSource.Int63.
func (s *streamSource) Int63() int64 {
	return int64(s.Uint64() & (1<<63 - 1))
}
