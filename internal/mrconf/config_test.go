package mrconf

import (
	"encoding/json"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestTable2Defaults pins the registry to the paper's Table 2.
func TestTable2Defaults(t *testing.T) {
	want := map[string]float64{
		MapMemoryMB:           1024,
		ReduceMemoryMB:        1024,
		IOSortMB:              100,
		SortSpillPercent:      0.80,
		ShuffleInputBufferPct: 0.70,
		ShuffleMergePct:       0.66,
		ShuffleMemoryLimitPct: 0.25,
		MergeInmemThreshold:   1000,
		ReduceInputBufferPct:  0.0,
		MapCPUVcores:          1,
		ReduceCPUVcores:       1,
		IOSortFactor:          10,
		ShuffleParallelCopies: 5,
	}
	if len(Params()) != len(want) {
		t.Fatalf("registry has %d params, Table 2 has %d", len(Params()), len(want))
	}
	c := Default()
	for name, def := range want {
		if got := c.Get(name); got != def {
			t.Errorf("default %s = %g, want %g", name, got, def)
		}
	}
}

func TestScopePartition(t *testing.T) {
	m := ParamsByScope(ScopeMap)
	r := ParamsByScope(ScopeReduce)
	if len(m)+len(r) != len(Params()) {
		t.Fatalf("scopes do not partition: %d + %d != %d", len(m), len(r), len(Params()))
	}
	if len(m) != 5 {
		t.Errorf("map-scope params = %d, want 5", len(m))
	}
	if len(r) != 8 {
		t.Errorf("reduce-scope params = %d, want 8", len(r))
	}
}

func TestWithQuantizesAndClamps(t *testing.T) {
	c := Default().With(IOSortMB, 1e9)
	if got := c.SortMB(); got != 1600 {
		t.Errorf("clamp high: io.sort.mb = %g, want 1600", got)
	}
	c = Default().With(IOSortMB, -5)
	if got := c.SortMB(); got != 50 {
		t.Errorf("clamp low: io.sort.mb = %g, want 50", got)
	}
	c = Default().With(SortSpillPercent, 0.834)
	if got := c.SpillPct(); got != 0.83 {
		t.Errorf("quantize: spill pct = %g, want 0.83", got)
	}
	c = Default().With(MapCPUVcores, 2.7)
	if got := c.MapVcores(); got != 3 {
		t.Errorf("quantize vcores = %d, want 3", got)
	}
}

func TestWithDoesNotMutate(t *testing.T) {
	base := Default().With(IOSortMB, 200)
	derived := base.With(IOSortMB, 400)
	if base.SortMB() != 200 {
		t.Fatalf("With mutated the receiver: %g", base.SortMB())
	}
	if derived.SortMB() != 400 {
		t.Fatalf("derived config wrong: %g", derived.SortMB())
	}
}

func TestGetUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Get of unknown parameter did not panic")
		}
	}()
	//mrlint:ignore conf-key-literal deliberately unknown key: this test asserts the panic
	Default().Get("mapreduce.no.such.parameter")
}

func TestEqualAndMerge(t *testing.T) {
	a := Default().With(IOSortMB, 200)
	b := Default().With(IOSortMB, 200)
	if !a.Equal(b) {
		t.Fatal("identical configs not Equal")
	}
	c := b.With(MapCPUVcores, 2)
	if a.Equal(c) {
		t.Fatal("different configs Equal")
	}
	merged := a.Merge(Default().With(MapCPUVcores, 2))
	if !merged.Equal(c) {
		t.Fatal("Merge result wrong")
	}
}

func TestDefaultOverrideRemoved(t *testing.T) {
	c := Default().With(IOSortMB, 200).With(IOSortMB, 100)
	if len(c.Overrides()) != 0 {
		t.Fatalf("setting a param back to default should clear the override, got %v", c.Overrides())
	}
	if c.String() != "defaults" {
		t.Fatalf("String() = %q, want \"defaults\"", c.String())
	}
}

func TestJSONRoundTrip(t *testing.T) {
	c := Default().With(IOSortMB, 400).With(ReduceCPUVcores, 2)
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var back Config
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !c.Equal(back) {
		t.Fatalf("round trip changed config: %s vs %s", c, back)
	}
}

func TestJSONUnknownKey(t *testing.T) {
	var c Config
	if err := json.Unmarshal([]byte(`{"bogus.key": 1}`), &c); err == nil {
		t.Fatal("unknown key accepted")
	}
}

func TestValidateDefault(t *testing.T) {
	if err := Validate(Default()); err != nil {
		t.Fatalf("default configuration invalid: %v", err)
	}
}

func TestValidateSortBufferVsHeap(t *testing.T) {
	// 1024 MB container -> 819 MB heap; io.sort.mb 1600 exceeds it.
	c := Default().With(IOSortMB, 1600)
	if err := Validate(c); err == nil {
		t.Fatal("io.sort.mb > heap accepted")
	}
	fixed := Repair(c)
	if err := Validate(fixed); err != nil {
		t.Fatalf("Repair did not fix sort buffer: %v", err)
	}
	if fixed.SortMB() > fixed.MapHeapMB() {
		t.Fatalf("repaired sort mb %g still exceeds heap %g", fixed.SortMB(), fixed.MapHeapMB())
	}
}

func TestValidateMergeVsInputBuffer(t *testing.T) {
	c := Default().With(ShuffleMergePct, 0.9).With(ShuffleInputBufferPct, 0.5)
	if err := Validate(c); err == nil {
		t.Fatal("merge.percent > input.buffer.percent accepted")
	}
	if err := Validate(Repair(c)); err != nil {
		t.Fatalf("Repair did not fix merge percent: %v", err)
	}
}

func TestValidateReduceInputBuffer(t *testing.T) {
	c := Default().With(ReduceInputBufferPct, 0.9).With(ShuffleInputBufferPct, 0.5)
	if err := Validate(c); err == nil {
		t.Fatal("input.buffer.percent > shuffle buffer accepted")
	}
	if err := Validate(Repair(c)); err != nil {
		t.Fatalf("Repair failed: %v", err)
	}
}

func TestQuantizeRespectsStep(t *testing.T) {
	p := MustLookup(IOSortFactor) // step 5, min 5
	if got := p.Quantize(12); got != 10 {
		t.Errorf("Quantize(12) = %g, want 10", got)
	}
	if got := p.Quantize(13); got != 15 {
		t.Errorf("Quantize(13) = %g, want 15", got)
	}
}

// Property: Repair always yields a Validate-clean config, for any
// random assignment within per-parameter ranges.
func TestRepairAlwaysValidProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := Default()
		for _, p := range Params() {
			v := p.Min + rng.Float64()*(p.Max-p.Min)
			c = c.With(p.Name, v)
		}
		return Validate(Repair(c)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: With is idempotent — setting the same value twice yields an
// Equal config, and Get returns what was set (post-quantization).
func TestWithGetProperty(t *testing.T) {
	params := Params()
	f := func(idx uint8, raw float64) bool {
		p := params[int(idx)%len(params)]
		if raw != raw { // NaN
			return true
		}
		if raw > 1e12 || raw < -1e12 {
			return true
		}
		c1 := Default().With(p.Name, raw)
		c2 := c1.With(p.Name, raw)
		return c1.Equal(c2) && c1.Get(p.Name) == p.Quantize(raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFromMap(t *testing.T) {
	c := FromMap(map[string]float64{IOSortMB: 200, MapCPUVcores: 2})
	if c.SortMB() != 200 || c.MapVcores() != 2 {
		t.Fatalf("FromMap lost values: %s", c)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FromMap with unknown key did not panic")
		}
	}()
	FromMap(map[string]float64{"bogus": 1})
}

func TestStringStableOrder(t *testing.T) {
	c := Default().With(ReduceCPUVcores, 2).With(IOSortMB, 200).With(MapCPUVcores, 3)
	want := "mapreduce.map.cpu.vcores=3 mapreduce.reduce.cpu.vcores=2 mapreduce.task.io.sort.mb=200"
	if c.String() != want {
		t.Fatalf("String() = %q, want %q", c.String(), want)
	}
}

func TestTypedAccessorsRoundTrip(t *testing.T) {
	c := Default().
		With(ReduceMemoryMB, 2048).
		With(ShuffleMemoryLimitPct, 0.4).
		With(MergeInmemThreshold, 500).
		With(ReduceCPUVcores, 3).
		With(IOSortFactor, 25).
		With(ShuffleParallelCopies, 15)
	if c.ReduceMemMB() != 2048 {
		t.Errorf("ReduceMemMB = %v", c.ReduceMemMB())
	}
	if c.MemoryLimitPct() != 0.4 {
		t.Errorf("MemoryLimitPct = %v", c.MemoryLimitPct())
	}
	if c.InmemThreshold() != 500 {
		t.Errorf("InmemThreshold = %v", c.InmemThreshold())
	}
	if c.ReduceVcores() != 3 {
		t.Errorf("ReduceVcores = %v", c.ReduceVcores())
	}
	if c.SortFactor() != 25 {
		t.Errorf("SortFactor = %v", c.SortFactor())
	}
	if c.ParallelCopies() != 15 {
		t.Errorf("ParallelCopies = %v", c.ParallelCopies())
	}
	if got := c.ReduceHeapMB(); got != 2048*HeapFraction {
		t.Errorf("ReduceHeapMB = %v", got)
	}
}

func TestCategoryAndScopeStrings(t *testing.T) {
	if CategoryStatic.String() != "static" ||
		CategoryTaskLaunch.String() != "task-launch" ||
		CategoryLive.String() != "live" {
		t.Fatal("Category strings broken")
	}
	if Category(99).String() == "" {
		t.Fatal("unknown category has empty string")
	}
	if ScopeMap.String() != "map" || ScopeReduce.String() != "reduce" {
		t.Fatal("Scope strings broken")
	}
	if Scope(99).String() == "" {
		t.Fatal("unknown scope has empty string")
	}
}

func TestOverridesIsolated(t *testing.T) {
	c := Default().With(IOSortMB, 200)
	ov := c.Overrides()
	ov[IOSortMB] = 999
	if c.SortMB() != 200 {
		t.Fatal("Overrides exposed internal map")
	}
}

// FuzzConfigJSON exercises the JSON decoder with arbitrary inputs: it
// must never panic, and any accepted config must round-trip.
func FuzzConfigJSON(f *testing.F) {
	f.Add(`{"mapreduce.task.io.sort.mb": 200}`)
	f.Add(`{}`)
	f.Add(`{"mapreduce.map.cpu.vcores": 1e308}`)
	// Practitioner Table 2 settings: the stock defaults written out, and
	// the common larger-buffer, wide-merge variant.
	f.Add(`{"mapreduce.task.io.sort.mb": 100, "mapreduce.task.io.sort.factor": 10,
		"mapreduce.reduce.shuffle.parallelcopies": 5,
		"mapreduce.reduce.shuffle.input.buffer.percent": 0.70,
		"mapreduce.reduce.shuffle.merge.percent": 0.66,
		"mapreduce.reduce.merge.inmem.threshold": 1000,
		"mapreduce.reduce.input.buffer.percent": 0,
		"mapreduce.map.memory.mb": 1024, "mapreduce.reduce.memory.mb": 1024,
		"mapreduce.map.sort.spill.percent": 0.8}`)
	f.Add(`{"mapreduce.task.io.sort.mb": 128, "mapreduce.task.io.sort.factor": 100,
		"mapreduce.reduce.shuffle.parallelcopies": 5,
		"mapreduce.reduce.shuffle.input.buffer.percent": 0.70,
		"mapreduce.reduce.shuffle.merge.percent": 0.66,
		"mapreduce.reduce.merge.inmem.threshold": 0,
		"mapreduce.reduce.input.buffer.percent": 0,
		"mapreduce.map.memory.mb": 1024, "mapreduce.reduce.memory.mb": 1024,
		"mapreduce.map.sort.spill.percent": 0.8}`)
	f.Fuzz(func(t *testing.T, data string) {
		var c Config
		if err := json.Unmarshal([]byte(data), &c); err != nil {
			return
		}
		out, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("accepted config failed to marshal: %v", err)
		}
		var back Config
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if !c.Equal(back) {
			t.Fatalf("round trip changed config: %s vs %s", c, back)
		}
	})
}

// TestSameIsIdentity pins the identity semantics snapshot caching
// relies on: a no-op With hands back its receiver, an effective one a
// new array, and separately built equal configs are Equal but not Same.
func TestSameIsIdentity(t *testing.T) {
	if !Default().Same(Default()) {
		t.Fatal("two defaults are not Same")
	}
	base := Default().With(IOSortMB, 200)
	if !base.With(IOSortMB, 203).Same(base) {
		t.Fatal("With of a value that quantizes to the current one is not Same")
	}
	if !Default().With(IOSortMB, 100).Same(Default()) {
		t.Fatal("With of the default onto defaults is not Same")
	}
	other := Default().With(IOSortMB, 200)
	if base.Same(other) || !base.Equal(other) {
		t.Fatal("separately built configs: want Equal and not Same")
	}
	if back := base.With(IOSortMB, 100); back.Same(Default()) || !back.Equal(Default()) {
		t.Fatal("resetting to the default: want Equal to, not Same as, Default()")
	}
}

// TestConfigAllocations pins the copy-on-write cost model: reads and
// no-op writes never allocate, an effective With makes exactly one
// allocation (the new array).
func TestConfigAllocations(t *testing.T) {
	cfg := Default().With(IOSortMB, 410).With(ReduceMemoryMB, 2048)
	var sink float64
	if a := testing.AllocsPerRun(100, func() {
		sink += cfg.Get(SortSpillPercent) + Default().Get(IOSortMB)
	}); a != 0 {
		t.Errorf("Get allocates %v per run, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		sink += cfg.MapMemMB() + cfg.ReduceMemMB() + cfg.SortMB() + cfg.SpillPct() +
			cfg.ShuffleBufferPct() + cfg.MergePct() + cfg.MemoryLimitPct() +
			cfg.ReduceInputBufPct() + cfg.MapHeapMB() + cfg.ReduceHeapMB() +
			float64(cfg.InmemThreshold()+cfg.MapVcores()+cfg.ReduceVcores()+
				cfg.SortFactor()+cfg.ParallelCopies())
	}); a != 0 {
		t.Errorf("typed accessors allocate %v per run, want 0", a)
	}
	var same bool
	if a := testing.AllocsPerRun(100, func() {
		same = cfg.With(IOSortMB, 412).Same(cfg) // quantizes to 410
	}); a != 0 || !same {
		t.Errorf("no-op With: %v allocations, Same=%v; want 0 and true", a, same)
	}
	var out Config
	if a := testing.AllocsPerRun(100, func() {
		out = cfg.With(IOSortMB, 500)
	}); a != 1 {
		t.Errorf("effective With allocates %v per run, want exactly 1", a)
	}
	if out.SortMB() != 500 || cfg.SortMB() != 410 {
		t.Fatalf("With: got %g, receiver now %g", out.SortMB(), cfg.SortMB())
	}
	_ = sink
}
