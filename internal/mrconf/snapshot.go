package mrconf

// Snapshot is a compiled Config: the full parameter assignment held by
// value, indexed by ParamID. It is taken once per job or task setup
// (Config.Snapshot) so that the per-event hot path — sort-buffer
// checks, shuffle thresholds, heap math — reads a task-local array
// rather than chasing the Config's pointer. The string-keyed Config API
// remains the interface at the edges (tuner, JSON, tests); a Snapshot
// is a frozen read-only view and never flows back into a Config.
type Snapshot struct {
	v [NumParams]float64
}

// Snapshot copies out the full effective assignment of c.
func (c Config) Snapshot() Snapshot { return Snapshot{v: *c.values()} }

// Get returns the value of a parameter by dense index.
func (s *Snapshot) Get(id ParamID) float64 { return s.v[id] }

// Typed accessors mirroring Config's, as index loads.

// MapMemMB returns the map container memory in MB.
func (s *Snapshot) MapMemMB() float64 { return s.v[IDMapMemoryMB] }

// ReduceMemMB returns the reduce container memory in MB.
func (s *Snapshot) ReduceMemMB() float64 { return s.v[IDReduceMemoryMB] }

// SortMB returns the map-side sort buffer size in MB.
func (s *Snapshot) SortMB() float64 { return s.v[IDIOSortMB] }

// SpillPct returns the sort-buffer spill threshold fraction.
func (s *Snapshot) SpillPct() float64 { return s.v[IDSortSpillPercent] }

// ShuffleBufferPct returns the shuffle input buffer heap fraction.
func (s *Snapshot) ShuffleBufferPct() float64 { return s.v[IDShuffleInputBufferPct] }

// MergePct returns the in-memory merge trigger fraction.
func (s *Snapshot) MergePct() float64 { return s.v[IDShuffleMergePct] }

// MemoryLimitPct returns the single-segment in-memory fetch limit.
func (s *Snapshot) MemoryLimitPct() float64 { return s.v[IDShuffleMemoryLimitPct] }

// InmemThreshold returns the in-memory merge segment-count trigger.
func (s *Snapshot) InmemThreshold() int { return int(s.v[IDMergeInmemThreshold]) }

// ReduceInputBufPct returns the reduce-phase retained-buffer fraction.
func (s *Snapshot) ReduceInputBufPct() float64 { return s.v[IDReduceInputBufferPct] }

// MapVcores returns vcores per map container.
func (s *Snapshot) MapVcores() int { return int(s.v[IDMapCPUVcores]) }

// ReduceVcores returns vcores per reduce container.
func (s *Snapshot) ReduceVcores() int { return int(s.v[IDReduceCPUVcores]) }

// SortFactor returns the merge fan-in.
func (s *Snapshot) SortFactor() int { return int(s.v[IDIOSortFactor]) }

// ParallelCopies returns the shuffle fetch concurrency.
func (s *Snapshot) ParallelCopies() int { return int(s.v[IDShuffleParallelCopies]) }

// MapHeapMB returns the usable map-task heap in MB.
func (s *Snapshot) MapHeapMB() float64 { return s.v[IDMapMemoryMB] * HeapFraction }

// ReduceHeapMB returns the usable reduce-task heap in MB.
func (s *Snapshot) ReduceHeapMB() float64 { return s.v[IDReduceMemoryMB] * HeapFraction }
