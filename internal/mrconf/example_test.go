package mrconf_test

import (
	"fmt"

	"repro/internal/mrconf"
)

// Configurations are immutable values: With returns a modified copy,
// quantized to the parameter's granularity and clamped into range.
func ExampleConfig_With() {
	cfg := mrconf.Default().
		With(mrconf.IOSortMB, 317). // snaps to the 10 MB grid
		With(mrconf.MapCPUVcores, 2)
	fmt.Println(cfg.SortMB(), cfg.MapVcores())
	fmt.Println(cfg)
	// Output:
	// 320 2
	// mapreduce.map.cpu.vcores=2 mapreduce.task.io.sort.mb=320
}

// Repair pulls dependent parameters into agreement (§5 rules): the
// sort buffer cannot exceed the map heap, and the merge trigger cannot
// exceed the shuffle buffer.
func ExampleRepair() {
	bad := mrconf.Default().
		With(mrconf.MapMemoryMB, 512). // heap ≈ 410 MB
		With(mrconf.IOSortMB, 800)
	fmt.Println(mrconf.Validate(bad) != nil)
	fixed := mrconf.Repair(bad)
	fmt.Println(mrconf.Validate(fixed) == nil, fixed.SortMB() <= fixed.MapHeapMB())
	// Output:
	// true
	// true true
}

// The registry is the paper's Table 2.
func ExampleParams() {
	fmt.Println(len(mrconf.Params()), "tunable parameters")
	p := mrconf.IOSortMB.Param()
	fmt.Println(p.Default, p.Category, p.Scope)
	// Output:
	// 13 tunable parameters
	// 100 task-launch map
}
