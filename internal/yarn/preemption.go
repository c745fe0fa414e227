package yarn

import (
	"math"
	"sort"
)

// Fair-share preemption: when an application starves below a fraction
// of its weighted fair share while others run above theirs, the
// resource manager kills the over-share application's newest
// containers and reassigns the capacity — YARN's fair-scheduler
// preemption, which keeps the paper's multi-tenant scenario responsive
// when a long job has already filled the cluster.

// PreemptionConfig tunes the policy.
type PreemptionConfig struct {
	// CheckInterval between evaluations (seconds).
	CheckInterval float64
	// StarvationFraction: an app with pending demand is starved when
	// its memory share is below this fraction of its fair share.
	StarvationFraction float64
	// MaxKillsPerRound bounds disruption per check.
	MaxKillsPerRound int
}

// DefaultPreemption mirrors common fair-scheduler settings.
func DefaultPreemption() PreemptionConfig {
	return PreemptionConfig{CheckInterval: 10, StarvationFraction: 0.5, MaxKillsPerRound: 4}
}

// EnablePreemption starts the periodic check. The ticker stops itself
// once no applications remain (so simulations drain); enable again
// after submitting a new batch if needed.
func (rm *ResourceManager) EnablePreemption(cfg PreemptionConfig) {
	if cfg.CheckInterval <= 0 {
		cfg = DefaultPreemption()
	}
	rm.eng.Tick(cfg.CheckInterval, func() bool {
		if len(rm.apps) == 0 {
			return false
		}
		rm.preemptRound(cfg)
		return true
	})
}

// preemptRound kills up to MaxKillsPerRound containers from over-share
// apps when starved demand exists.
func (rm *ResourceManager) preemptRound(cfg PreemptionConfig) {
	total := rm.c.TotalContainerMemMB()
	var weightSum float64
	for _, app := range rm.apps {
		if app.running > 0 || len(app.pending) > 0 {
			weightSum += app.Weight
		}
	}
	if weightSum == 0 {
		return
	}
	share := func(app *App) float64 { return total * app.Weight / weightSum }

	starvedDemand := 0.0
	for _, app := range rm.apps {
		if len(app.pending) > 0 && app.usedMemMB < cfg.StarvationFraction*share(app) {
			starvedDemand += math.Min(pendingMemMB(app), share(app)-app.usedMemMB)
		}
	}
	if starvedDemand <= 0 {
		return
	}

	// Victims: apps above their fair share, most over-share first.
	victims := make([]*App, 0, len(rm.apps))
	for _, app := range rm.apps {
		if app.usedMemMB > share(app) {
			victims = append(victims, app)
		}
	}
	sort.Slice(victims, func(i, j int) bool {
		return victims[i].usedMemMB-share(victims[i]) > victims[j].usedMemMB-share(victims[j])
	})

	kills := 0
	for _, victim := range victims {
		for kills < cfg.MaxKillsPerRound && starvedDemand > 0 && victim.usedMemMB > share(victim) {
			c := rm.newestContainer(victim)
			if c == nil {
				break
			}
			starvedDemand -= c.Resource.MemMB
			kills++
			rm.preempt(c)
		}
	}
}

func pendingMemMB(app *App) float64 {
	sum := 0.0
	for _, req := range app.pending {
		sum += req.Resource.MemMB
	}
	return sum
}

// newestContainer returns the victim's most recently allocated live
// container (least work lost when killed).
func (rm *ResourceManager) newestContainer(app *App) *Container {
	live := rm.liveByApp[app]
	for i := len(live) - 1; i >= 0; i-- {
		if !live[i].released {
			return live[i]
		}
	}
	return nil
}

// preempt notifies the owner (which must stop the container's work
// without releasing it) and then releases the container.
func (rm *ResourceManager) preempt(c *Container) {
	rm.preemptions++
	if c.OnPreempt != nil {
		c.OnPreempt(c)
	}
	if !c.released {
		rm.Release(c)
	}
}

// Preemptions returns how many containers have been preempted.
func (rm *ResourceManager) Preemptions() int { return rm.preemptions }
