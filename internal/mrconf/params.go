// Package mrconf defines the MapReduce configuration parameter space
// that MRONLINE tunes: the 13 key parameters of the paper's Table 2,
// their defaults, ranges, tuning categories (§2.2), and the
// cross-parameter dependency rules from §5.
package mrconf

import (
	"fmt"
	"math"
)

// Category classifies when a changed parameter value can take effect
// (paper §2.2).
type Category int

const (
	// CategoryStatic parameters are fixed once the job starts (number
	// of mappers/reducers, slow start). MRONLINE does not tune these.
	CategoryStatic Category = iota + 1
	// CategoryTaskLaunch parameters apply to tasks launched after the
	// change (container sizes, buffer sizes).
	CategoryTaskLaunch
	// CategoryLive parameters take effect immediately, even for running
	// tasks (spill thresholds).
	CategoryLive
)

func (c Category) String() string {
	switch c {
	case CategoryStatic:
		return "static"
	case CategoryTaskLaunch:
		return "task-launch"
	case CategoryLive:
		return "live"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Scope says which task type a parameter configures, which determines
// the search subspace (map-task costs drive map-scope parameters,
// reduce-task costs drive reduce-scope ones).
type Scope int

const (
	ScopeMap Scope = iota + 1
	ScopeReduce
)

func (s Scope) String() string {
	switch s {
	case ScopeMap:
		return "map"
	case ScopeReduce:
		return "reduce"
	default:
		return fmt.Sprintf("Scope(%d)", int(s))
	}
}

// Param describes one tunable parameter.
type Param struct {
	Name     string
	Default  float64
	Min, Max float64
	// Step is the value granularity: samples are rounded to multiples
	// of Step (1 for integers, 0.01 for percentages, 64 for MB sizes).
	Step     float64
	Category Category
	Scope    Scope
	Desc     string
}

// Quantize rounds v to the parameter's granularity and clamps it into
// [Min, Max].
func (p Param) Quantize(v float64) float64 {
	if p.Step > 0 {
		steps := math.Round((v - p.Min) / p.Step)
		v = p.Min + steps*p.Step
		// Snap away binary-float dust (0.8300000000000001 -> 0.83) so
		// that grid-aligned values compare equal across parameters.
		v = math.Round(v*1e9) / 1e9
	}
	if v < p.Min {
		v = p.Min
	}
	if v > p.Max {
		v = p.Max
	}
	return v
}

// Canonical parameter names (Hadoop property keys, as in Table 2).
const (
	MapMemoryMB           = "mapreduce.map.memory.mb"
	ReduceMemoryMB        = "mapreduce.reduce.memory.mb"
	IOSortMB              = "mapreduce.task.io.sort.mb"
	SortSpillPercent      = "mapreduce.map.sort.spill.percent"
	ShuffleInputBufferPct = "mapreduce.reduce.shuffle.input.buffer.percent"
	ShuffleMergePct       = "mapreduce.reduce.shuffle.merge.percent"
	ShuffleMemoryLimitPct = "mapreduce.reduce.shuffle.memory.limit.percent"
	MergeInmemThreshold   = "mapreduce.reduce.merge.inmem.threshold"
	ReduceInputBufferPct  = "mapreduce.reduce.input.buffer.percent"
	MapCPUVcores          = "mapreduce.map.cpu.vcores"
	ReduceCPUVcores       = "mapreduce.reduce.cpu.vcores"
	IOSortFactor          = "mapreduce.task.io.sort.factor"
	ShuffleParallelCopies = "mapreduce.reduce.shuffle.parallelcopies"
)

// ParamID is a dense index into the registry: the layout of Config's
// value array, so its typed accessors are array loads rather than
// string-hashed lookups.
type ParamID int

// Registry indices, in registry order. These are fixed by the Table 2
// ordering; an init-time assertion below keeps them in sync.
const (
	IDMapMemoryMB ParamID = iota
	IDReduceMemoryMB
	IDIOSortMB
	IDSortSpillPercent
	IDShuffleInputBufferPct
	IDShuffleMergePct
	IDShuffleMemoryLimitPct
	IDMergeInmemThreshold
	IDReduceInputBufferPct
	IDMapCPUVcores
	IDReduceCPUVcores
	IDIOSortFactor
	IDShuffleParallelCopies

	// NumParams is the registry size; the length of Config's value
	// array.
	NumParams
)

// registry holds the Table 2 parameters in a stable order.
var registry = []Param{
	{MapMemoryMB, 1024, 512, 4096, 64, CategoryTaskLaunch, ScopeMap,
		"container memory for map tasks (MB)"},
	{ReduceMemoryMB, 1024, 512, 4096, 64, CategoryTaskLaunch, ScopeReduce,
		"container memory for reduce tasks (MB)"},
	{IOSortMB, 100, 50, 1600, 10, CategoryTaskLaunch, ScopeMap,
		"map-side sort buffer (MB)"},
	{SortSpillPercent, 0.80, 0.50, 0.99, 0.01, CategoryLive, ScopeMap,
		"sort-buffer fill fraction that triggers a spill"},
	{ShuffleInputBufferPct, 0.70, 0.20, 0.90, 0.01, CategoryTaskLaunch, ScopeReduce,
		"fraction of reduce heap used as shuffle buffer"},
	{ShuffleMergePct, 0.66, 0.20, 0.90, 0.01, CategoryTaskLaunch, ScopeReduce,
		"shuffle-buffer fill fraction that triggers in-memory merge"},
	{ShuffleMemoryLimitPct, 0.25, 0.05, 0.50, 0.01, CategoryTaskLaunch, ScopeReduce,
		"max single-segment fraction of the shuffle buffer fetched to memory"},
	{MergeInmemThreshold, 1000, 0, 10000, 100, CategoryLive, ScopeReduce,
		"in-memory segment count that triggers merge (0 disables)"},
	{ReduceInputBufferPct, 0.0, 0.0, 0.90, 0.01, CategoryTaskLaunch, ScopeReduce,
		"fraction of reduce heap that may retain map outputs during reduce"},
	{MapCPUVcores, 1, 1, 8, 1, CategoryTaskLaunch, ScopeMap,
		"vcores per map container"},
	{ReduceCPUVcores, 1, 1, 8, 1, CategoryTaskLaunch, ScopeReduce,
		"vcores per reduce container"},
	{IOSortFactor, 10, 5, 100, 5, CategoryTaskLaunch, ScopeMap,
		"max segments merged at once (disk-to-disk merge fan-in)"},
	{ShuffleParallelCopies, 5, 5, 50, 5, CategoryTaskLaunch, ScopeReduce,
		"concurrent shuffle fetch threads per reducer"},
}

// idByName maps parameter names to their dense registry index.
var idByName = func() map[string]ParamID {
	m := make(map[string]ParamID, len(registry))
	for i, p := range registry {
		m[p.Name] = ParamID(i)
	}
	return m
}()

func init() {
	// The ParamID constants must mirror the registry ordering exactly;
	// a drift here would silently misroute Config reads.
	if len(registry) != int(NumParams) {
		panic(fmt.Sprintf("mrconf: registry has %d params, NumParams is %d",
			len(registry), int(NumParams)))
	}
	want := []struct {
		id   ParamID
		name string
	}{
		{IDMapMemoryMB, MapMemoryMB},
		{IDReduceMemoryMB, ReduceMemoryMB},
		{IDIOSortMB, IOSortMB},
		{IDSortSpillPercent, SortSpillPercent},
		{IDShuffleInputBufferPct, ShuffleInputBufferPct},
		{IDShuffleMergePct, ShuffleMergePct},
		{IDShuffleMemoryLimitPct, ShuffleMemoryLimitPct},
		{IDMergeInmemThreshold, MergeInmemThreshold},
		{IDReduceInputBufferPct, ReduceInputBufferPct},
		{IDMapCPUVcores, MapCPUVcores},
		{IDReduceCPUVcores, ReduceCPUVcores},
		{IDIOSortFactor, IOSortFactor},
		{IDShuffleParallelCopies, ShuffleParallelCopies},
	}
	for _, w := range want {
		if registry[w.id].Name != w.name {
			panic(fmt.Sprintf("mrconf: ParamID %d expects %q, registry has %q",
				int(w.id), w.name, registry[w.id].Name))
		}
	}
}

// ID returns the dense registry index for name.
func ID(name string) (ParamID, bool) {
	id, ok := idByName[name]
	return id, ok
}

// Params returns all tunable parameters in registry order.
func Params() []Param {
	out := make([]Param, len(registry))
	copy(out, registry)
	return out
}

// ParamsByScope returns the parameters for one search subspace, in
// registry order.
func ParamsByScope(s Scope) []Param {
	var out []Param
	for _, p := range registry {
		if p.Scope == s {
			out = append(out, p)
		}
	}
	return out
}

// MustLookup returns the parameter descriptor for a known-good name;
// it panics on a typo.
func MustLookup(name string) Param { return registry[mustID(name)] }

// mustID is ID for known-good names; it panics on a typo.
func mustID(name string) ParamID {
	id, ok := idByName[name]
	if !ok {
		panic(fmt.Sprintf("mrconf: unknown parameter %q", name))
	}
	return id
}
