package workload

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// ArrivalSpec describes an open job-arrival process: a Poisson stream
// whose rate is modulated by a diurnal cycle — the shape of ROADMAP
// item 1's multi-tenant "thousands of jobs/day" workload. All
// randomness is drawn from named sim.Source sub-streams, so a given
// (seed, spec) pair always yields the same arrival sequence regardless
// of what else the simulation draws.
type ArrivalSpec struct {
	// MeanPerHour is the average arrival rate over a full day, jobs
	// per hour of simulated time.
	MeanPerHour float64
	// DiurnalAmplitude in [0, 1) scales the day/night swing: the
	// instantaneous rate is MeanPerHour * (1 + A*sin(2πt/daySecs)),
	// which crosses the mean going up at t=0 and peaks six hours in.
	// 0 is a flat Poisson process.
	DiurnalAmplitude float64
	// Horizon stops the stream: no arrivals are generated at or past
	// this simulated time.
	Horizon float64
}

// daySecs is the diurnal cycle's length: one day.
const daySecs = 86400

// Validate reports the first out-of-range field of spec, the same
// check Arrivals and ScheduleArrivals apply before generating.
func (s ArrivalSpec) Validate() error {
	switch {
	case s.MeanPerHour <= 0 || math.IsNaN(s.MeanPerHour) || math.IsInf(s.MeanPerHour, 0):
		return fmt.Errorf("workload: arrival rate must be positive and finite, got %v", s.MeanPerHour)
	case s.DiurnalAmplitude < 0 || s.DiurnalAmplitude >= 1:
		return fmt.Errorf("workload: diurnal amplitude must be in [0, 1), got %v", s.DiurnalAmplitude)
	case s.Horizon <= 0 || math.IsNaN(s.Horizon) || math.IsInf(s.Horizon, 0):
		return fmt.Errorf("workload: arrival horizon must be positive and finite, got %v", s.Horizon)
	}
	return nil
}

// rate returns the instantaneous arrival rate in jobs/second at time t.
func (s ArrivalSpec) rate(t float64) float64 {
	base := s.MeanPerHour / 3600
	if s.DiurnalAmplitude == 0 {
		return base
	}
	return base * (1 + s.DiurnalAmplitude*math.Sin(2*math.Pi*t/daySecs))
}

// Arrivals generates the arrival times of the nonhomogeneous Poisson
// process described by spec, deterministically from the "arrivals"
// sub-stream of src. It uses Lewis-Shedler thinning: candidate gaps
// are drawn from a homogeneous process at the peak rate
// mean*(1+amplitude) and accepted with probability rate(t)/peak, which
// is exact for any bounded rate function. Each accepted time is
// strictly later than the one before it.
func Arrivals(src *sim.Source, spec ArrivalSpec) ([]float64, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	gaps := src.Sub("arrivals").Stream("gaps")
	accept := src.Sub("arrivals").Stream("thinning")
	peak := (spec.MeanPerHour / 3600) * (1 + spec.DiurnalAmplitude)

	var times []float64
	t := 0.0
	for {
		// Exponential gap at the peak rate. ExpFloat64 has mean 1.
		t += gaps.ExpFloat64() / peak
		if t >= spec.Horizon {
			return times, nil
		}
		if spec.DiurnalAmplitude == 0 || accept.Float64()*peak < spec.rate(t) {
			times = append(times, t)
		}
	}
}

// ScheduleArrivals schedules every arrival on eng as one sim.AtEach
// series, invoking submit(i, t) for the i-th arrival at simulated time
// t. Only the next arrival is queued at any moment; the firing order
// is that of one event per arrival. It returns the number of arrivals
// scheduled. The caller owns what "submit" means — typically
// mapreduce.Submit of a job drawn from the Table 3 mix — which keeps
// this generator free of job-layer dependencies.
func ScheduleArrivals(eng *sim.Engine, src *sim.Source, spec ArrivalSpec, submit func(i int, t float64)) (int, error) {
	times, err := Arrivals(src, spec)
	if err != nil {
		return 0, err
	}
	eng.AtEach(times, func(i int) { submit(i, times[i]) })
	return len(times), nil
}
