package mapreduce

// Speculative execution: Hadoop's straggler mitigation. A periodic
// check compares each running task's elapsed time to the mean of
// completed tasks of the same type; tasks running far behind get a
// duplicate ("speculative") attempt on another container, and whichever
// copy finishes first wins while the loser is killed. The paper's
// experiments do not exercise speculation (and our figure calibration
// mirrors them), so it is off unless Spec.Speculation is set — but it
// matters whenever the cluster develops hot spots or heavy skew.

// SpeculationConfig tunes the straggler detector.
type SpeculationConfig struct {
	// CheckInterval is how often running tasks are examined (seconds).
	CheckInterval float64
	// SlowTaskThreshold: a task is a straggler when its elapsed time
	// exceeds this multiple of the mean completed-task duration.
	SlowTaskThreshold float64
	// MinCompleted tasks of a type must have finished before the mean
	// is trusted.
	MinCompleted int
	// MaxConcurrent bounds live speculative attempts per job.
	MaxConcurrent int
}

// DefaultSpeculation mirrors Hadoop's defaults closely enough:
// check every 5 s, speculate at 1.5x the mean, cap at 10 copies.
func DefaultSpeculation() *SpeculationConfig {
	return &SpeculationConfig{
		CheckInterval:     5,
		SlowTaskThreshold: 1.5,
		MinCompleted:      5,
		MaxConcurrent:     10,
	}
}

// scheduleSpeculation arms the periodic straggler check; the ticker
// stops itself when the job finishes (or was recycled) so the event
// queue can drain.
func (j *Job) scheduleSpeculation() {
	cfg := j.spec.Speculation
	if cfg == nil {
		return
	}
	g := j.gen
	j.eng.Tick(cfg.CheckInterval, func() bool {
		if j.gen != g || j.finished {
			return false
		}
		j.checkSpeculation()
		return true
	})
}

// meanSuccessDuration returns the mean duration of successful attempts
// of a type and how many there were.
func (j *Job) meanSuccessDuration(tt TaskType) (float64, int) {
	sum, n := 0.0, 0
	for _, r := range j.reports {
		if r.Type == tt && !r.OOM && !r.Failed {
			sum += r.Duration()
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

func (j *Job) checkSpeculation() {
	cfg := j.spec.Speculation
	now := j.eng.Now()
	for _, tasks := range [][]*Task{j.mapTasks, j.reduceTasks} {
		if len(tasks) == 0 {
			continue
		}
		mean, n := j.meanSuccessDuration(tasks[0].Type)
		if n < cfg.MinCompleted || mean <= 0 {
			continue
		}
		for _, t := range tasks {
			if j.liveShadows >= cfg.MaxConcurrent {
				return
			}
			if t.State != TaskRunning || t.killed || t.specCopy != nil || t.specOrigin != nil {
				continue
			}
			if now-t.StartTime > cfg.SlowTaskThreshold*mean {
				j.launchShadow(t)
			}
		}
	}
}

// launchShadow requests a duplicate attempt of a straggling task.
func (j *Job) launchShadow(orig *Task) {
	shadow := &Task{
		Job:        j,
		Type:       orig.Type,
		ID:         orig.ID,
		Attempt:    orig.Attempt + 100, // distinguishes speculative attempts
		Skew:       orig.Skew,
		Split:      orig.Split,
		specOrigin: orig,
	}
	orig.specCopy = shadow
	j.liveShadows++
	j.counters.SpeculativeLaunches++
	j.requestContainerWithConfig(shadow, orig.Config)
}

// logical returns the task identity a copy belongs to.
func (t *Task) logical() *Task {
	if t.specOrigin != nil {
		return t.specOrigin
	}
	return t
}

// otherCopy returns the twin attempt, if any.
func (t *Task) otherCopy() *Task {
	if t.specOrigin != nil {
		return t.specOrigin
	}
	return t.specCopy
}
