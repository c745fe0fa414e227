// Package lhs implements Latin hypercube sampling over bounded
// parameter spaces, including the weighted variant used by the smart
// hill-climbing algorithm MRONLINE builds on (Xi et al., WWW'04):
// each dimension's range is partitioned into equal-probability
// intervals and exactly one sample is drawn per interval, which covers
// the space far more evenly than independent uniform draws.
package lhs

import (
	"fmt"
	"math/rand"
)

// Dim is one sampled dimension.
type Dim struct {
	Name     string
	Min, Max float64
}

// Range returns the dimension width.
func (d Dim) Range() float64 { return d.Max - d.Min }

// Space is an ordered set of dimensions.
type Space []Dim

// Sample draws m Latin-hypercube points from the space: per dimension,
// the range is cut into m strata and a random permutation assigns one
// stratum to each point, with jitter inside the stratum.
func Sample(rng *rand.Rand, space Space, m int) [][]float64 {
	if m <= 0 {
		panic(fmt.Sprintf("lhs: sample count %d must be positive", m))
	}
	points := make([][]float64, m)
	for i := range points {
		points[i] = make([]float64, len(space))
	}
	for d, dim := range space {
		perm := rng.Perm(m)
		for i := 0; i < m; i++ {
			u := (float64(perm[i]) + rng.Float64()) / float64(m)
			points[i][d] = dim.Min + u*dim.Range()
		}
	}
	return points
}

// Weights bias sampling within one dimension: k intervals of equal
// width with relative weights. Higher weight makes a stratum denser in
// samples (probability-proportional stratification).
type Weights []float64

// cdfInvert maps u in [0,1) through the inverse CDF implied by the
// weights, returning a position in [0,1).
func (w Weights) cdfInvert(u float64) float64 {
	total := 0.0
	for _, v := range w {
		if v < 0 {
			panic("lhs: negative weight")
		}
		total += v
	}
	if total == 0 {
		return u
	}
	target := u * total
	acc := 0.0
	for i, v := range w {
		if target < acc+v || i == len(w)-1 {
			frac := 0.0
			if v > 0 {
				frac = (target - acc) / v
			}
			return (float64(i) + frac) / float64(len(w))
		}
		acc += v
	}
	return u
}

// WeightedSample draws m LHS points where each dimension d is biased
// by weights[d] (nil entry = uniform). The stratification happens in
// probability space, so each of the m samples still covers a distinct
// probability quantile — the weighted-LHS construction of the smart
// hill-climbing paper.
func WeightedSample(rng *rand.Rand, space Space, weights []Weights, m int) [][]float64 {
	if weights != nil && len(weights) != len(space) {
		panic(fmt.Sprintf("lhs: %d weight vectors for %d dims", len(weights), len(space)))
	}
	points := make([][]float64, m)
	for i := range points {
		points[i] = make([]float64, len(space))
	}
	for d, dim := range space {
		perm := rng.Perm(m)
		var w Weights
		if weights != nil {
			w = weights[d]
		}
		for i := 0; i < m; i++ {
			u := (float64(perm[i]) + rng.Float64()) / float64(m)
			if w != nil {
				u = w.cdfInvert(u)
			}
			points[i][d] = dim.Min + u*dim.Range()
		}
	}
	return points
}

// Neighborhood returns the sub-space centered at center whose width in
// every dimension is size (a fraction of the full range), clamped to
// the original bounds — the local-search region of Algorithm 1.
func Neighborhood(space Space, center []float64, size float64) Space {
	if len(center) != len(space) {
		panic(fmt.Sprintf("lhs: center has %d coords for %d dims", len(center), len(space)))
	}
	out := make(Space, len(space))
	for d, dim := range space {
		half := size * dim.Range() / 2
		lo, hi := center[d]-half, center[d]+half
		if lo < dim.Min {
			lo = dim.Min
		}
		if hi > dim.Max {
			hi = dim.Max
		}
		if hi < lo {
			hi = lo
		}
		out[d] = Dim{Name: dim.Name, Min: lo, Max: hi}
	}
	return out
}
