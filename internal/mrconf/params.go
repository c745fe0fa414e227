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
	// ID is the parameter's key in code: its index in the registry and
	// in Config's value array.
	ID ParamID
	// Name is the Hadoop property key (Table 2): the parameter's name in
	// JSON and printed output.
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
		// The float64 conversions round each product (also a caller's
		// v = x*y, once inlined) before it is added, so no GOARCH fuses
		// the two into a multiply-add with different bits.
		steps := math.Round((float64(v) - p.Min) / p.Step)
		v = p.Min + float64(steps*p.Step)
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

// ParamID names one Table 2 parameter in code. It is a dense index
// into the registry and the layout of Config's value array, so a read
// is an array load; the Hadoop key is only the parameter's name in JSON
// and printed output.
type ParamID int

// The Table 2 parameters, in registry order.
const (
	MapMemoryMB ParamID = iota
	ReduceMemoryMB
	IOSortMB
	SortSpillPercent
	ShuffleInputBufferPct
	ShuffleMergePct
	ShuffleMemoryLimitPct
	MergeInmemThreshold
	ReduceInputBufferPct
	MapCPUVcores
	ReduceCPUVcores
	IOSortFactor
	ShuffleParallelCopies

	// NumParams is the registry size; the length of Config's value
	// array.
	NumParams
)

// registry holds the Table 2 parameters, keyed by ParamID. Each entry
// repeats its key as Param.ID; TestRegistryKeyedByID checks the two
// agree and that no ID is left without an entry.
var registry = [NumParams]Param{
	MapMemoryMB: {MapMemoryMB, "mapreduce.map.memory.mb",
		1024, 512, 4096, 64, CategoryTaskLaunch, ScopeMap,
		"container memory for map tasks (MB)"},
	ReduceMemoryMB: {ReduceMemoryMB, "mapreduce.reduce.memory.mb",
		1024, 512, 4096, 64, CategoryTaskLaunch, ScopeReduce,
		"container memory for reduce tasks (MB)"},
	IOSortMB: {IOSortMB, "mapreduce.task.io.sort.mb",
		100, 50, 1600, 10, CategoryTaskLaunch, ScopeMap,
		"map-side sort buffer (MB)"},
	SortSpillPercent: {SortSpillPercent, "mapreduce.map.sort.spill.percent",
		0.80, 0.50, 0.99, 0.01, CategoryLive, ScopeMap,
		"sort-buffer fill fraction that triggers a spill"},
	ShuffleInputBufferPct: {ShuffleInputBufferPct, "mapreduce.reduce.shuffle.input.buffer.percent",
		0.70, 0.20, 0.90, 0.01, CategoryTaskLaunch, ScopeReduce,
		"fraction of reduce heap used as shuffle buffer"},
	ShuffleMergePct: {ShuffleMergePct, "mapreduce.reduce.shuffle.merge.percent",
		0.66, 0.20, 0.90, 0.01, CategoryTaskLaunch, ScopeReduce,
		"shuffle-buffer fill fraction that triggers in-memory merge"},
	ShuffleMemoryLimitPct: {ShuffleMemoryLimitPct, "mapreduce.reduce.shuffle.memory.limit.percent",
		0.25, 0.05, 0.50, 0.01, CategoryTaskLaunch, ScopeReduce,
		"max single-segment fraction of the shuffle buffer fetched to memory"},
	MergeInmemThreshold: {MergeInmemThreshold, "mapreduce.reduce.merge.inmem.threshold",
		1000, 0, 10000, 100, CategoryLive, ScopeReduce,
		"in-memory segment count that triggers merge (0 disables)"},
	ReduceInputBufferPct: {ReduceInputBufferPct, "mapreduce.reduce.input.buffer.percent",
		0.0, 0.0, 0.90, 0.01, CategoryTaskLaunch, ScopeReduce,
		"fraction of reduce heap that may retain map outputs during reduce"},
	MapCPUVcores: {MapCPUVcores, "mapreduce.map.cpu.vcores",
		1, 1, 8, 1, CategoryTaskLaunch, ScopeMap,
		"vcores per map container"},
	ReduceCPUVcores: {ReduceCPUVcores, "mapreduce.reduce.cpu.vcores",
		1, 1, 8, 1, CategoryTaskLaunch, ScopeReduce,
		"vcores per reduce container"},
	IOSortFactor: {IOSortFactor, "mapreduce.task.io.sort.factor",
		10, 5, 100, 5, CategoryTaskLaunch, ScopeMap,
		"max segments merged at once (disk-to-disk merge fan-in)"},
	ShuffleParallelCopies: {ShuffleParallelCopies, "mapreduce.reduce.shuffle.parallelcopies",
		5, 5, 50, 5, CategoryTaskLaunch, ScopeReduce,
		"concurrent shuffle fetch threads per reducer"},
}

// Param returns the parameter's descriptor.
func (id ParamID) Param() Param { return registry[id] }

// Params returns all tunable parameters in registry order.
func Params() []Param { return append([]Param(nil), registry[:]...) }

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
