// Package metrics provides the small statistics toolkit used across the
// simulator: time-weighted utilization meters, sample aggregates, and
// percentile helpers. MRONLINE's monitor component is built on these.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Meter integrates a piecewise-constant level over simulated time,
// yielding time-weighted averages. It is used for resource utilization:
// set the level whenever it changes, then read Average over a window.
type Meter struct {
	level    float64
	lastTime float64
	integral float64
	started  bool
	start    float64
	peak     float64
}

// Set records that the level changed to v at time now. Times must be
// nondecreasing.
func (m *Meter) Set(now, v float64) {
	if !m.started {
		m.started = true
		m.start = now
		m.lastTime = now
	}
	if now < m.lastTime {
		panic(fmt.Sprintf("metrics: Meter time went backwards: %v < %v", now, m.lastTime))
	}
	m.integral += m.level * (now - m.lastTime)
	m.lastTime = now
	m.level = v
	if v > m.peak {
		m.peak = v
	}
}

// Add adjusts the level by delta at time now.
func (m *Meter) Add(now, delta float64) {
	m.Set(now, m.level+delta)
}

// Level returns the current level.
func (m *Meter) Level() float64 { return m.level }

// Peak returns the maximum level ever set.
func (m *Meter) Peak() float64 { return m.peak }

// Average returns the time-weighted average level from the first Set
// through time now.
func (m *Meter) Average(now float64) float64 {
	if !m.started || now <= m.start {
		return 0
	}
	integral := m.integral + m.level*(now-m.lastTime)
	return integral / (now - m.start)
}

// Integral returns the accumulated level·time product through time now.
func (m *Meter) Integral(now float64) float64 {
	if !m.started {
		return 0
	}
	return m.integral + m.level*(now-m.lastTime)
}

// Sample is a streaming aggregate over scalar observations.
type Sample struct {
	n          int
	sum, sumSq float64
	min, max   float64
	values     []float64 // retained for percentiles, in observation order
	// sorted holds values[:len(sorted)] in ascending order; Percentile
	// folds in only the observations made since its previous call.
	sorted []float64
}

// Observe adds one value.
func (s *Sample) Observe(v float64) {
	if s.n == 0 {
		s.min, s.max = v, v
	} else {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	s.n++
	s.sum += v
	s.sumSq += v * v
	s.values = append(s.values, v)
}

// N returns the number of observations.
func (s *Sample) N() int { return s.n }

// Sum returns the total of all observations.
func (s *Sample) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean, or 0 with no observations.
func (s *Sample) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Min returns the smallest observation, or 0 with no observations.
func (s *Sample) Min() float64 { return s.min }

// Max returns the largest observation, or 0 with no observations.
func (s *Sample) Max() float64 { return s.max }

// StdDev returns the population standard deviation.
func (s *Sample) StdDev() float64 {
	if s.n == 0 {
		return 0
	}
	mean := s.Mean()
	v := s.sumSq/float64(s.n) - mean*mean
	if v < 0 {
		v = 0 // guard against tiny negative from rounding
	}
	return math.Sqrt(v)
}

// Percentile returns the p-th percentile (0..100) using linear
// interpolation between closest ranks. It returns 0 with no observations.
// The sorted view it reads is kept between calls, so a call costs one
// binary insertion per observation made since the previous call (and
// nothing when there is none) instead of a full sort; the result equals
// Percentile(s.Values(), p).
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

// Values returns a copy of all observations in insertion order.
func (s *Sample) Values() []float64 {
	out := make([]float64, len(s.values))
	copy(out, s.values)
	return out
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
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
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
