package core

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/mrconf"
)

func TestConfiguratorJobParameters(t *testing.T) {
	dc := NewDynamicConfigurator()
	names := dc.GetConfigurableJobParameters("job1")
	// All 13 Table-2 parameters are category 2 or 3, hence tunable.
	if len(names) != 13 {
		t.Fatalf("configurable job parameters = %d, want 13", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatal("parameter names not sorted")
		}
	}
}

func TestConfiguratorTaskParametersByScope(t *testing.T) {
	dc := NewDynamicConfigurator()
	m := dc.GetConfigurableTaskParameters("job1", TaskID(true, 0))
	r := dc.GetConfigurableTaskParameters("job1", TaskID(false, 0))
	if len(m) != 5 {
		t.Fatalf("map task parameters = %d, want 5", len(m))
	}
	if len(r) != 8 {
		t.Fatalf("reduce task parameters = %d, want 8", len(r))
	}
}

func TestSetJobParameters(t *testing.T) {
	dc := NewDynamicConfigurator()
	n := dc.SetJobParameters("job1", map[string]float64{mrconf.IOSortMB: 300})
	if n != 1 {
		t.Fatalf("SetJobParameters = %d, want 1", n)
	}
	cfg := dc.ConfigFor("job1", TaskID(true, 0), mrconf.Default())
	if cfg.SortMB() != 300 {
		t.Fatalf("job-wide override not applied: %v", cfg.SortMB())
	}
	// Unknown names are rejected wholesale.
	if n := dc.SetJobParameters("job1", map[string]float64{"bad.key": 1}); n != -1 {
		t.Fatalf("unknown key accepted: %d", n)
	}
}

func TestPerTaskOverridesWinOverJob(t *testing.T) {
	dc := NewDynamicConfigurator()
	dc.SetJobParameters("job1", map[string]float64{mrconf.IOSortMB: 300})
	dc.SetTaskParameters("job1", TaskID(true, 7), map[string]float64{mrconf.IOSortMB: 500})
	if got := dc.ConfigFor("job1", TaskID(true, 7), mrconf.Default()).SortMB(); got != 500 {
		t.Fatalf("task override lost: %v", got)
	}
	if got := dc.ConfigFor("job1", TaskID(true, 8), mrconf.Default()).SortMB(); got != 300 {
		t.Fatalf("other task affected: %v", got)
	}
}

// An explicit override equal to the Table 2 default is still an
// override: it resets a non-default base value, at job and task level.
func TestDefaultValuedOverrideResetsBase(t *testing.T) {
	base := mrconf.Default().With(mrconf.IOSortMB, 400).With(mrconf.MapCPUVcores, 3)
	dc := NewDynamicConfigurator()
	dc.SetJobParameters("job1", map[string]float64{mrconf.IOSortMB: 100})
	dc.SetTaskParameters("job1", TaskID(true, 7), map[string]float64{mrconf.MapCPUVcores: 1})
	cfg := dc.ConfigFor("job1", TaskID(true, 7), base)
	if cfg.SortMB() != 100 || cfg.MapVcores() != 1 {
		t.Fatalf("default-valued overrides dropped: io.sort.mb=%v vcores=%v, want 100 and 1",
			cfg.SortMB(), cfg.MapVcores())
	}
	if got := dc.ConfigFor("job1", TaskID(true, 8), base).MapVcores(); got != 3 {
		t.Fatalf("task override leaked to another task: vcores=%v", got)
	}
}

// ConfigFor on the tuner's per-task path builds no maps: resolving a
// task whose overrides change nothing hands back the base itself.
func TestConfigForNoOpIsAllocationFree(t *testing.T) {
	base := mrconf.Default().With(mrconf.IOSortMB, 400)
	dc := NewDynamicConfigurator()
	dims := []mrconf.Param{mrconf.MustLookup(mrconf.IOSortMB)}
	id := TaskID(true, 7)
	dc.setTaskPoint("job1", id, dims, []float64{400})
	var cfg mrconf.Config
	if a := testing.AllocsPerRun(100, func() {
		cfg = dc.ConfigFor("job1", id, base)
	}); a != 0 {
		t.Errorf("ConfigFor allocates %v per run, want 0", a)
	}
	if !cfg.Same(base) {
		t.Fatal("no-op overrides did not return the base config")
	}
}

func TestSetAllTaskParametersClearsPerTask(t *testing.T) {
	dc := NewDynamicConfigurator()
	dc.SetTaskParameters("job1", TaskID(true, 7), map[string]float64{mrconf.IOSortMB: 500})
	dc.SetAllTaskParameters("job1", map[string]float64{mrconf.IOSortMB: 200})
	if got := dc.ConfigFor("job1", TaskID(true, 7), mrconf.Default()).SortMB(); got != 200 {
		t.Fatalf("SetAllTaskParameters did not override per-task value: %v", got)
	}
}

func TestClearTask(t *testing.T) {
	dc := NewDynamicConfigurator()
	dc.SetTaskParameters("job1", TaskID(true, 7), map[string]float64{mrconf.IOSortMB: 500})
	dc.ClearTask("job1", TaskID(true, 7))
	if got := dc.ConfigFor("job1", TaskID(true, 7), mrconf.Default()).SortMB(); got != 100 {
		t.Fatalf("ClearTask left override: %v", got)
	}
}

func TestConfigForUnknownJobIsBase(t *testing.T) {
	dc := NewDynamicConfigurator()
	base := mrconf.Default().With(mrconf.MapCPUVcores, 2)
	if got := dc.ConfigFor("nope", TaskID(true, 0), base); !got.Equal(base) {
		t.Fatal("unknown job should return base config")
	}
}

func TestTaskIDFormat(t *testing.T) {
	if TaskID(true, 42) != "m-00042" {
		t.Fatalf("map task id = %s", TaskID(true, 42))
	}
	if TaskID(false, 7) != "r-00007" {
		t.Fatalf("reduce task id = %s", TaskID(false, 7))
	}
}

func TestKnowledgeBaseRoundTrip(t *testing.T) {
	kb := NewKnowledgeBase()
	cfg := mrconf.Default().With(mrconf.IOSortMB, 400).With(mrconf.MapCPUVcores, 2)
	key := Key("terasort", 100*1024, "paper-19")
	kb.Put(key, cfg)
	if kb.Len() != 1 {
		t.Fatalf("Len = %d", kb.Len())
	}
	got, ok := kb.Get(key)
	if !ok || !got.Equal(cfg) {
		t.Fatal("Get returned wrong config")
	}

	path := filepath.Join(t.TempDir(), "kb.json")
	if err := kb.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	got, ok = back.Get(key)
	if !ok || !got.Equal(cfg) {
		t.Fatal("loaded knowledge base differs")
	}
	if len(back.Keys()) != 1 {
		t.Fatal("Keys() wrong")
	}
}

func TestKnowledgeBaseKeyBuckets(t *testing.T) {
	// Nearby sizes share a bucket; far sizes do not.
	a := Key("terasort", 100*1024, "c")
	b := Key("terasort", 90*1024, "c")
	c := Key("terasort", 2*1024, "c")
	if a != b {
		t.Fatalf("90GB and 100GB should share a power-of-two bucket: %s vs %s", a, b)
	}
	if a == c {
		t.Fatal("2GB and 100GB should not share a bucket")
	}
	if Key("terasort", 100, "c1") == Key("terasort", 100, "c2") {
		t.Fatal("different clusters share a key")
	}
}

func TestKnowledgeBaseLoadErrors(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file load succeeded")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil {
		t.Fatal("corrupt file load succeeded")
	}
}
