package trace

// Views of sink state that only tests read.

// InFlight returns the number of submitted-but-unfinished jobs.
func (s *StatsSink) InFlight() int { return len(s.inflight) }

// Class returns a copy of one class's aggregate (zero value if absent).
func (s *StatsSink) Class(name string) ClassStats {
	if c, ok := s.classes[name]; ok {
		return *c
	}
	return ClassStats{}
}

// Duration returns the job's wall-clock span.
func (s JobStats) Duration() float64 { return s.FinishTime - s.SubmitTime }
