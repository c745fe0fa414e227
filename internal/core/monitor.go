package core

import (
	"repro/internal/mapreduce"
	"repro/internal/metrics"
	"repro/internal/mrconf"
)

// Monitor is MRONLINE's centralized monitor (§3): it aggregates the
// per-task statistics the slave monitors report and derives the
// runtime estimates the tuner and the tuning rules consume — maximum
// task times for Eq. 1, map-output and reduce-input size estimates for
// the buffer rules, and utilization summaries.
type Monitor struct {
	numMaps    int
	numReduces int

	mapReports    []mapreduce.TaskReport
	reduceReports []mapreduce.TaskReport

	tmaxMap    float64
	tmaxReduce float64

	mapOutMB     metrics.Sample // per successful map task (post-combiner)
	mapRawMB     metrics.Sample // pre-combiner map output
	mapMemUtil   metrics.Sample
	mapCPUUtil   metrics.Sample
	mapSpillRat  metrics.Sample
	redInMB      metrics.Sample
	redMemUtil   metrics.Sample
	redCPUUtil   metrics.Sample
	redSpillRat  metrics.Sample
	mapDurations metrics.Sample
	redDurations metrics.Sample

	// mapWS and redWS accumulate the user-code working-set estimates
	// (heap beside the sort/shuffle buffer) incrementally at ingestion,
	// so the tuning rules stop re-deriving them from every report on
	// each recompute. Fed under the same filter and in the same order as
	// a scan over MapReports/ReduceReports would observe.
	mapWS metrics.Sample
	redWS metrics.Sample
}

// NewMonitor returns a monitor for a job with the given task counts.
func NewMonitor(numMaps, numReduces int) *Monitor {
	return &Monitor{numMaps: numMaps, numReduces: numReduces}
}

// Observe ingests one task report.
func (m *Monitor) Observe(r mapreduce.TaskReport) {
	d := r.Duration()
	if r.Type == mapreduce.MapTask {
		m.mapReports = append(m.mapReports, r)
		// Failed attempts (injected fault, node loss) carry partial,
		// misleading measurements: keep the report for bookkeeping but
		// feed none of the estimators, not even tmax — a fault is not
		// evidence about the configuration.
		if d > m.tmaxMap && !r.Failed {
			m.tmaxMap = d
		}
		if !r.OOM && !r.Failed {
			m.mapOutMB.Observe(r.DataMB)
			m.mapRawMB.Observe(r.RawOutputMB)
			m.mapMemUtil.Observe(r.MemUtil)
			m.mapCPUUtil.Observe(r.CPUUtil)
			m.mapDurations.Observe(d)
			if r.OutputRecords > 0 {
				m.mapSpillRat.Observe(r.SpilledRecords / r.OutputRecords)
			}
			peakHeap := r.MemUtil * r.Config.MapMemMB() * mrconf.HeapFraction
			if w := peakHeap - mapreduce.JVMBaseMB - r.Config.SortMB(); w > 0 {
				m.mapWS.Observe(w)
			}
		}
		return
	}
	m.reduceReports = append(m.reduceReports, r)
	if d > m.tmaxReduce && !r.Failed {
		m.tmaxReduce = d
	}
	if !r.OOM && !r.Failed {
		m.redInMB.Observe(r.DataMB)
		m.redMemUtil.Observe(r.MemUtil)
		m.redCPUUtil.Observe(r.CPUUtil)
		m.redDurations.Observe(d)
		if r.OutputRecords > 0 {
			m.redSpillRat.Observe(r.SpilledRecords / r.OutputRecords)
		}
		peakHeap := r.MemUtil * r.Config.ReduceMemMB() * mrconf.HeapFraction
		w := peakHeap - mapreduce.JVMBaseMB - r.Config.ShuffleBufferPct()*r.Config.ReduceHeapMB()
		if w > 0 {
			m.redWS.Observe(w)
		}
	}
}

// MapWorkingSet returns the accumulated map-side user-code working-set
// sample (heap beside the sort buffer, successful attempts only).
func (m *Monitor) MapWorkingSet() *metrics.Sample { return &m.mapWS }

// ReduceWorkingSet returns the accumulated reduce-side working-set
// sample (heap beside the shuffle buffer, successful attempts only).
func (m *Monitor) ReduceWorkingSet() *metrics.Sample { return &m.redWS }

// TMax returns the slowest observed task time of the given type, the
// denominator of Eq. 1's relative-time term.
func (m *Monitor) TMax(t mapreduce.TaskType) float64 {
	if t == mapreduce.MapTask {
		return m.tmaxMap
	}
	return m.tmaxReduce
}

// EstMapOutputMB estimates per-map-task post-combiner output from
// completed tasks; ok is false before any map has finished.
func (m *Monitor) EstMapOutputMB() (float64, bool) {
	if m.mapOutMB.N() == 0 {
		return 0, false
	}
	return m.mapOutMB.Mean(), true
}

// EstMapRawOutputMB estimates the pre-combiner map output per task —
// the volume that must fit in io.sort.mb for a single spill.
func (m *Monitor) EstMapRawOutputMB() (float64, bool) {
	if m.mapRawMB.N() == 0 {
		return 0, false
	}
	return m.mapRawMB.Mean(), true
}

// EstReduceInputMB estimates per-reducer shuffle input by scaling the
// observed mean map output to the full map count and dividing across
// reducers — available before the first reducer finishes, which is
// when the shuffle-buffer rules need it.
func (m *Monitor) EstReduceInputMB() (float64, bool) {
	if m.mapOutMB.N() == 0 || m.numReduces == 0 {
		return 0, false
	}
	total := m.mapOutMB.Mean() * float64(m.numMaps)
	return total / float64(m.numReduces), true
}

// MapReports and ReduceReports return all ingested reports.
func (m *Monitor) MapReports() []mapreduce.TaskReport    { return m.mapReports }
func (m *Monitor) ReduceReports() []mapreduce.TaskReport { return m.reduceReports }

// Completed returns how many attempts have been observed for a type.
func (m *Monitor) Completed(t mapreduce.TaskType) int {
	if t == mapreduce.MapTask {
		return len(m.mapReports)
	}
	return len(m.reduceReports)
}

// MeanCPUUtil returns the running mean CPU utilization for a type.
func (m *Monitor) MeanCPUUtil(t mapreduce.TaskType) float64 {
	if t == mapreduce.MapTask {
		return m.mapCPUUtil.Mean()
	}
	return m.redCPUUtil.Mean()
}

// MeanMemUtil returns the running mean memory utilization for a type.
func (m *Monitor) MeanMemUtil(t mapreduce.TaskType) float64 {
	if t == mapreduce.MapTask {
		return m.mapMemUtil.Mean()
	}
	return m.redMemUtil.Mean()
}

// MeanSpillRatio returns the mean spilled/output record ratio.
func (m *Monitor) MeanSpillRatio(t mapreduce.TaskType) float64 {
	if t == mapreduce.MapTask {
		return m.mapSpillRat.Mean()
	}
	return m.redSpillRat.Mean()
}

// MeanDuration returns the mean successful-attempt duration.
func (m *Monitor) MeanDuration(t mapreduce.TaskType) float64 {
	if t == mapreduce.MapTask {
		return m.mapDurations.Mean()
	}
	return m.redDurations.Mean()
}
