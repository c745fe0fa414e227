package workload

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func TestArrivalsDeterministic(t *testing.T) {
	spec := ArrivalSpec{MeanPerHour: 120, DiurnalAmplitude: 0.5, Horizon: 6 * 3600}
	a, err := Arrivals(sim.NewSource(11), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Arrivals(sim.NewSource(11), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("no arrivals generated")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at arrival %d: %v vs %v", i, a[i], b[i])
		}
	}
	c, err := Arrivals(sim.NewSource(12), spec)
	if err != nil {
		t.Fatal(err)
	}
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical arrivals")
	}
}

func TestArrivalsOrderedAndBounded(t *testing.T) {
	spec := ArrivalSpec{MeanPerHour: 600, DiurnalAmplitude: 0.9, Horizon: 3 * 3600}
	times, err := Arrivals(sim.NewSource(3), spec)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for i, at := range times {
		if at <= prev {
			t.Fatalf("arrival %d at %v not after previous %v", i, at, prev)
		}
		if at >= spec.Horizon {
			t.Fatalf("arrival %d at %v is past the horizon %v", i, at, spec.Horizon)
		}
		prev = at
	}
}

func TestArrivalsMeanRate(t *testing.T) {
	// Over two full diurnal cycles the sine integrates to zero, so the
	// expected count is MeanPerHour * hours whatever the amplitude.
	spec := ArrivalSpec{MeanPerHour: 100, DiurnalAmplitude: 0.8, PeriodSecs: 3600, Horizon: 2 * 3600}
	times, err := Arrivals(sim.NewSource(42), spec)
	if err != nil {
		t.Fatal(err)
	}
	want := 200.0
	got := float64(len(times))
	if math.Abs(got-want) > 4*math.Sqrt(want) { // ±4σ of a Poisson(200)
		t.Fatalf("got %v arrivals, want %v ± %v", got, want, 4*math.Sqrt(want))
	}
}

func TestArrivalsDiurnalShape(t *testing.T) {
	// With a strong diurnal swing, the quarter-cycle around the peak
	// must see far more arrivals than the one around the trough.
	spec := ArrivalSpec{MeanPerHour: 400, DiurnalAmplitude: 0.9, PeriodSecs: 86400, Horizon: 86400}
	times, err := Arrivals(sim.NewSource(5), spec)
	if err != nil {
		t.Fatal(err)
	}
	// rate ∝ 1 + 0.9 sin(2πt/86400): peak at t=21600, trough at t=64800.
	peakCount, troughCount := 0, 0
	for _, at := range times {
		switch {
		case at >= 10800 && at < 32400:
			peakCount++
		case at >= 54000 && at < 75600:
			troughCount++
		}
	}
	if peakCount <= 2*troughCount {
		t.Fatalf("diurnal modulation too weak: peak quarter %d, trough quarter %d", peakCount, troughCount)
	}
}

func TestArrivalSpecValidation(t *testing.T) {
	bad := []ArrivalSpec{
		{MeanPerHour: 0, Horizon: 10},
		{MeanPerHour: -5, Horizon: 10},
		{MeanPerHour: 10, DiurnalAmplitude: 1.0, Horizon: 10},
		{MeanPerHour: 10, DiurnalAmplitude: -0.1, Horizon: 10},
		{MeanPerHour: 10, Horizon: 0},
		{MeanPerHour: 10, PeriodSecs: -3600, Horizon: 10},
		{MeanPerHour: math.Inf(1), Horizon: 10},
	}
	for i, spec := range bad {
		if _, err := Arrivals(sim.NewSource(1), spec); err == nil {
			t.Errorf("spec %d (%+v) did not error", i, spec)
		}
	}
}

func TestScheduleArrivals(t *testing.T) {
	eng := sim.NewEngine()
	spec := ArrivalSpec{MeanPerHour: 60, Horizon: 3600}
	var fired []float64
	n, err := ScheduleArrivals(eng, sim.NewSource(9), spec, func(i int, at float64) {
		if i != len(fired) {
			t.Fatalf("arrival index %d fired out of order (have %d)", i, len(fired))
		}
		if eng.Now() != at {
			t.Fatalf("arrival %d fired at %v, scheduled for %v", i, eng.Now(), at)
		}
		fired = append(fired, at)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no arrivals scheduled")
	}
	eng.Run()
	if len(fired) != n {
		t.Fatalf("fired %d of %d scheduled arrivals", len(fired), n)
	}
}
