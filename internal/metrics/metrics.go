// Package metrics provides the small statistics toolkit used across the
// simulator: sample aggregates, percentile helpers and the fault
// counter sheet.
package metrics

import (
	"math"
	"sort"
)

// Sample is a streaming aggregate over scalar observations.
type Sample struct {
	n        int
	sum, max float64
	values   []float64 // retained for percentiles, in observation order
	// sorted holds values[:len(sorted)] in ascending order; Percentile
	// folds in only the observations made since its previous call.
	sorted []float64
}

// Observe adds one value.
func (s *Sample) Observe(v float64) {
	if s.n == 0 || v > s.max {
		s.max = v
	}
	s.n++
	s.sum += v
	s.values = append(s.values, v)
}

// N returns the number of observations.
func (s *Sample) N() int { return s.n }

// Mean returns the arithmetic mean, or 0 with no observations.
func (s *Sample) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Max returns the largest observation, or 0 with no observations.
func (s *Sample) Max() float64 { return s.max }

// Percentile returns the p-th percentile (0..100) using linear
// interpolation between closest ranks. It returns 0 with no observations.
// The sorted view it reads is kept between calls, so a call costs one
// binary insertion per observation made since the previous call (and
// nothing when there is none) instead of a full sort; the result equals
// Percentile over all observations.
func (s *Sample) Percentile(p float64) float64 {
	if s.n == 0 {
		return 0
	}
	s.catchUp()
	return sortedPercentile(s.sorted, p)
}

// catchUp folds the observations not yet in s.sorted into it: one
// binary insertion each, or a single sort when the backlog outnumbers
// what is already sorted (the first call, or a rare query).
func (s *Sample) catchUp() {
	done := len(s.sorted)
	fresh := s.values[done:]
	if len(fresh) > done {
		s.sorted = append(s.sorted, fresh...)
		sort.Float64s(s.sorted)
		return
	}
	for _, v := range fresh {
		// Upper bound under sort.Float64s' order (NaNs first), so the
		// view matches what sorting the whole sample would give.
		lo, hi := 0, len(s.sorted)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if w := s.sorted[mid]; v < w || (v != v && w == w) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		s.sorted = append(s.sorted, 0)
		copy(s.sorted[lo+1:], s.sorted[lo:])
		s.sorted[lo] = v
	}
}

// Percentile computes the p-th percentile (0..100) of values using
// linear interpolation. It does not modify values. Empty input yields 0.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	return sortedPercentile(sorted, p)
}

// sortedPercentile is Percentile over an already ascending, non-empty
// slice.
func sortedPercentile(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := float64(p / 100 * float64(len(sorted)-1))
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
