package mrconf

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Config is one point in the parameter space: a full assignment of the
// Table 2 parameters, laid out densely by ParamID. A nil array means
// every parameter takes its default. The array is copied on write and
// never mutated after construction — With returns a modified copy — so
// configurations can be shared between tasks safely, and a Config stays
// one word wide wherever it is stored.
type Config struct {
	v *[NumParams]float64
}

// defaults is the Table 2 default assignment, the values a nil Config
// reads.
var defaults = func() (d [NumParams]float64) {
	for i, p := range registry {
		d[i] = p.Default
	}
	return d
}()

// Default returns the default YARN configuration (Table 2, rightmost
// column).
func Default() Config { return Config{} }

// values returns the effective assignment for reading; it must not be
// written through.
func (c Config) values() *[NumParams]float64 {
	if c.v == nil {
		return &defaults
	}
	return c.v
}

// Get returns the value of a parameter (the default if not overridden).
func (c Config) Get(id ParamID) float64 { return c.values()[id] }

// With returns a copy of c with parameter id set to value. The value
// is quantized to the parameter's granularity and clamped into range.
func (c Config) With(id ParamID, value float64) Config {
	v := quantized(id, value)
	cur := c.values()
	// Fast path: the effective value is unchanged, so the receiver is
	// returned as-is — arrays are never mutated after construction,
	// making the share safe, and Same-based fast paths rely on it.
	if cur[id] == v {
		return c
	}
	out := *cur
	out[id] = v
	return Config{v: &out}
}

// WithIDs returns c with vals[id] set for every id marked in set: the
// result of calling With for each of them in registry order, built
// with at most one copy. It returns the receiver when no value changes.
func (c Config) WithIDs(set *[NumParams]bool, vals *[NumParams]float64) Config {
	cur := c.values()
	var out *[NumParams]float64
	for id, ok := range set {
		if !ok {
			continue
		}
		v := quantized(ParamID(id), vals[id])
		if out == nil {
			if cur[id] == v {
				continue
			}
			cp := *cur
			out = &cp
		}
		out[id] = v
	}
	if out == nil {
		return c
	}
	return Config{v: out}
}

// quantized returns value quantized to parameter id's grid; a
// non-finite value panics.
func quantized(id ParamID, value float64) float64 {
	p := &registry[id]
	if math.IsNaN(value) || math.IsInf(value, 0) {
		panic(fmt.Sprintf("mrconf: non-finite value %v for %s", value, p.Name))
	}
	return p.Quantize(value)
}

// Equal reports whether two configs assign identical values to every
// parameter.
func (c Config) Equal(other Config) bool { return *c.values() == *other.values() }

// Same reports whether two configs share the identical array — an O(1)
// identity check, not a value comparison. With and Repair return their
// receiver unchanged when nothing changes effectively, so a config that
// came through a no-op pipeline is Same as the original and work
// derived from it (such as a job's submission-time Repair) can be
// reused. Same never returns a false positive; it may return false
// for configs that are Equal but built separately.
func (c Config) Same(other Config) bool { return c.v == other.v }

// Overrides returns the non-default assignments, for reporting. Each
// call builds a new map; callers that only need to iterate or count
// should use EachOverride or NumOverrides instead.
func (c Config) Overrides() map[string]float64 {
	out := make(map[string]float64, c.NumOverrides())
	c.EachOverride(func(p Param, v float64) { out[p.Name] = v })
	return out
}

// NumOverrides returns the number of non-default assignments.
func (c Config) NumOverrides() int {
	n := 0
	c.EachOverride(func(Param, float64) { n++ })
	return n
}

// EachOverride calls fn for every non-default assignment in registry
// order, without allocating.
func (c Config) EachOverride(fn func(p Param, v float64)) {
	if c.v == nil {
		return
	}
	for i, v := range c.v {
		if v != defaults[i] {
			fn(registry[i], v)
		}
	}
}

// String renders the non-default assignments in Hadoop key order.
func (c Config) String() string {
	var over []Param
	c.EachOverride(func(p Param, _ float64) { over = append(over, p) })
	if len(over) == 0 {
		return "defaults"
	}
	sort.Slice(over, func(i, j int) bool { return over[i].Name < over[j].Name })
	var b strings.Builder
	for i, p := range over {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%g", p.Name, c.Get(p.ID))
	}
	return b.String()
}

// MarshalJSON encodes the full parameter assignment.
func (c Config) MarshalJSON() ([]byte, error) {
	m := make(map[string]float64, len(registry))
	for i, v := range c.values() {
		m[registry[i].Name] = v
	}
	return json.Marshal(m)
}

// UnmarshalJSON decodes a full or partial parameter assignment.
func (c *Config) UnmarshalJSON(data []byte) error {
	var m map[string]float64
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	for name := range m {
		if !isParamName(name) {
			return fmt.Errorf("mrconf: unknown parameter %q in JSON", name)
		}
	}
	out := Config{}
	for _, p := range registry {
		if v, ok := m[p.Name]; ok {
			out = out.With(p.ID, v)
		}
	}
	*c = out
	return nil
}

// isParamName reports whether name is a parameter's Hadoop key.
func isParamName(name string) bool {
	for _, p := range registry {
		if p.Name == name {
			return true
		}
	}
	return false
}

// Typed accessors for the parameters the runtime consults constantly,
// as index loads.

// MapMemMB returns the map container memory in MB.
func (c Config) MapMemMB() float64 { return c.values()[MapMemoryMB] }

// ReduceMemMB returns the reduce container memory in MB.
func (c Config) ReduceMemMB() float64 { return c.values()[ReduceMemoryMB] }

// SortMB returns the map-side sort buffer size in MB.
func (c Config) SortMB() float64 { return c.values()[IOSortMB] }

// SpillPct returns the sort-buffer spill threshold fraction.
func (c Config) SpillPct() float64 { return c.values()[SortSpillPercent] }

// ShuffleBufferPct returns the shuffle input buffer heap fraction.
func (c Config) ShuffleBufferPct() float64 { return c.values()[ShuffleInputBufferPct] }

// MergePct returns the in-memory merge trigger fraction.
func (c Config) MergePct() float64 { return c.values()[ShuffleMergePct] }

// MemoryLimitPct returns the single-segment in-memory fetch limit.
func (c Config) MemoryLimitPct() float64 { return c.values()[ShuffleMemoryLimitPct] }

// InmemThreshold returns the in-memory merge segment-count trigger.
func (c Config) InmemThreshold() int { return int(c.values()[MergeInmemThreshold]) }

// ReduceInputBufPct returns the reduce-phase retained-buffer fraction.
func (c Config) ReduceInputBufPct() float64 { return c.values()[ReduceInputBufferPct] }

// MapVcores returns vcores per map container.
func (c Config) MapVcores() int { return int(c.values()[MapCPUVcores]) }

// ReduceVcores returns vcores per reduce container.
func (c Config) ReduceVcores() int { return int(c.values()[ReduceCPUVcores]) }

// SortFactor returns the merge fan-in.
func (c Config) SortFactor() int { return int(c.values()[IOSortFactor]) }

// ParallelCopies returns the shuffle fetch concurrency.
func (c Config) ParallelCopies() int { return int(c.values()[ShuffleParallelCopies]) }

// HeapFraction is the fraction of container memory available as JVM
// heap (the rest is JVM and native overhead). Hadoop guides recommend
// ~0.8; the simulator uses the same constant.
const HeapFraction = 0.8

// MapHeapMB returns the usable map-task heap in MB.
func (c Config) MapHeapMB() float64 { return float64(c.MapMemMB() * HeapFraction) }

// ReduceHeapMB returns the usable reduce-task heap in MB.
func (c Config) ReduceHeapMB() float64 { return float64(c.ReduceMemMB() * HeapFraction) }
