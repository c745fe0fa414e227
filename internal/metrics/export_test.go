package metrics

// Views of Sample state that only tests read.

// Sum returns the total of all observations.
func (s *Sample) Sum() float64 { return s.sum }

// Values returns a copy of all observations in insertion order.
func (s *Sample) Values() []float64 {
	out := make([]float64, len(s.values))
	copy(out, s.values)
	return out
}
