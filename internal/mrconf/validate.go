package mrconf

import (
	"errors"
	"fmt"
)

// Dependency rules from the paper (§5): the search must respect
// relationships between parameters, not just per-parameter ranges.
//
//   - io.sort.mb must fit in the map task's heap;
//   - shuffle.merge.percent must not exceed shuffle.input.buffer.percent;
//   - reduce.input.buffer.percent must not exceed
//     shuffle.input.buffer.percent (it retains data in the same heap).

// ErrInvalid is wrapped by all validation errors.
var ErrInvalid = errors.New("invalid configuration")

// Validate checks per-parameter ranges and the cross-parameter
// dependency rules. It returns nil for a usable configuration.
//
//mrlint:ignore test-only-export the independent reference that tests check Repair and every tuner's output against
func Validate(c Config) error {
	for i, v := range c.values() {
		if p := &registry[i]; v < p.Min || v > p.Max {
			return fmt.Errorf("%w: %s=%g outside [%g, %g]", ErrInvalid, p.Name, v, p.Min, p.Max)
		}
	}
	if c.SortMB() > c.MapHeapMB() {
		return fmt.Errorf("%w: %s=%g exceeds map heap %.0f MB (%s=%g)",
			ErrInvalid, IOSortMB, c.SortMB(), c.MapHeapMB(), MapMemoryMB, c.MapMemMB())
	}
	if c.MergePct() > c.ShuffleBufferPct() {
		return fmt.Errorf("%w: %s=%g exceeds %s=%g",
			ErrInvalid, ShuffleMergePct, c.MergePct(), ShuffleInputBufferPct, c.ShuffleBufferPct())
	}
	if c.ReduceInputBufPct() > c.ShuffleBufferPct() {
		return fmt.Errorf("%w: %s=%g exceeds %s=%g",
			ErrInvalid, ReduceInputBufferPct, c.ReduceInputBufPct(), ShuffleInputBufferPct, c.ShuffleBufferPct())
	}
	return nil
}

// Repair returns the nearest valid configuration to c: values are
// clamped into range (With already quantizes) and dependent parameters
// are pulled down to satisfy the §5 rules. Sampling algorithms call
// this after generating a candidate so that every evaluated point is
// feasible, mirroring how MRONLINE adjusts sampled configurations
// "based on the task-related information".
func Repair(c Config) Config {
	out := c
	if maxSort := out.MapHeapMB(); out.SortMB() > maxSort {
		out = out.With(IOSortMB, maxSort)
		// Quantization rounds to nearest, which may land one step above
		// the heap bound; round down in that case.
		if out.SortMB() > maxSort {
			out = out.With(IOSortMB, out.SortMB()-MustLookup(IOSortMB).Step)
		}
	}
	if out.MergePct() > out.ShuffleBufferPct() {
		out = out.With(ShuffleMergePct, out.ShuffleBufferPct())
	}
	if out.ReduceInputBufPct() > out.ShuffleBufferPct() {
		out = out.With(ReduceInputBufferPct, out.ShuffleBufferPct())
	}
	return out
}
