package workload

// Per-task data volumes that only tests read.

// MapOutputMBPerTask returns the average post-combiner map output per
// task.
func (b Benchmark) MapOutputMBPerTask() float64 {
	if b.NumMaps == 0 {
		return 0
	}
	return b.ShuffleSizeMB / float64(b.NumMaps)
}

// ReduceInputMBPerTask returns the average shuffle bytes per reducer.
func (b Benchmark) ReduceInputMBPerTask() float64 {
	if b.NumReduces == 0 {
		return 0
	}
	return b.ShuffleSizeMB / float64(b.NumReduces)
}
