package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/mrconf"
	"repro/internal/tuner"
)

func stateWithCost(c float64) tuner.ScopeState {
	return tuner.ScopeState{
		Backend: "hill", Names: []string{"a", "b"},
		Best: []float64{1, 2}, BestCost: c, HaveBest: true,
		Evals: 10, Waves: 3,
	}
}

func writeFile(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "kb.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestKnowledgeBaseKeyBuckets(t *testing.T) {
	// Nearby sizes share a bucket; far sizes do not.
	a := Key("terasort", 100*1024)
	b := Key("terasort", 90*1024)
	c := Key("terasort", 2*1024)
	if a != b {
		t.Fatalf("90GB and 100GB should share a power-of-two bucket: %s vs %s", a, b)
	}
	if a == c {
		t.Fatal("2GB and 100GB should not share a bucket")
	}
}

func TestKeyBucketsByPowerOfTwo(t *testing.T) {
	cases := []struct {
		app  string
		mb   float64
		want string
	}{
		{"wordcount", 1, "wordcount|2^0MB"},
		{"wordcount", 1.5, "wordcount|2^1MB"},
		{"wordcount", 2048, "wordcount|2^11MB"},
		{"wordcount", 2049, "wordcount|2^12MB"},
		{"sort", 2048, "sort|2^11MB"},
	}
	for _, c := range cases {
		if got := Key(c.app, c.mb); got != c.want {
			t.Errorf("Key(%s, %v) = %q, want %q", c.app, c.mb, got, c.want)
		}
	}
	// Near-identical input sizes share a class; different scales don't.
	if Key("wc", 1000) != Key("wc", 1020) {
		t.Error("similar sizes landed in different classes")
	}
	if Key("wc", 1000) == Key("wc", 9000) {
		t.Error("different scales share a class")
	}
}

func TestKnowledgeBaseRoundTrip(t *testing.T) {
	kb := NewKnowledgeBase()
	cfg := mrconf.Default().With(mrconf.IOSortMB, 400).With(mrconf.MapCPUVcores, 2)
	key := Key("terasort", 100*1024)
	kb.Update(key, Entry{Config: &cfg})
	if kb.Len() != 1 {
		t.Fatalf("Len = %d", kb.Len())
	}
	got, ok := kb.Get(key)
	if !ok || got.Config == nil || !got.Config.Equal(cfg) {
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
	if !ok || got.Config == nil || !got.Config.Equal(cfg) {
		t.Fatal("loaded knowledge base differs")
	}
	if back.Len() != 1 {
		t.Fatal("Len() wrong after load")
	}
}

// A class entry's search state and a search-only entry both survive a
// save and load.
func TestKnowledgeBaseSaveLoadRoundTrip(t *testing.T) {
	kb := NewKnowledgeBase()
	kb.Update("wc|2^11MB", Entry{Map: stateWithCost(2.0), Reduce: stateWithCost(3.0)})
	kb.Update("ts|2^12MB", Entry{Map: stateWithCost(0.5)})
	path := filepath.Join(t.TempDir(), "kb.json")
	if err := kb.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("loaded %d entries, want 2", back.Len())
	}
	e, ok := back.Get("wc|2^11MB")
	if !ok || e.Map.BestCost != 2.0 || len(e.Map.Best) != 2 || e.Map.Best[1] != 2 || e.Jobs != 1 {
		t.Fatalf("round trip mangled entry: %+v", e)
	}
	if e, ok := back.Get("ts|2^12MB"); !ok || e.Config != nil || !e.Map.HaveBest || e.Reduce.HaveBest {
		t.Fatalf("search-only entry mangled: %+v", e)
	}
}

func TestKnowledgeBaseKeepsLowerCostScope(t *testing.T) {
	kb := NewKnowledgeBase()
	key := Key("wc", 2048)
	kb.Update(key, Entry{Map: stateWithCost(2.0), Reduce: stateWithCost(3.0)})
	kb.Update(key, Entry{Map: stateWithCost(1.5), Reduce: stateWithCost(4.0)})
	e, ok := kb.Get(key)
	if !ok {
		t.Fatal("entry missing")
	}
	if e.Map.BestCost != 1.5 {
		t.Fatalf("map scope kept cost %v, want the lower 1.5", e.Map.BestCost)
	}
	if e.Reduce.BestCost != 3.0 {
		t.Fatalf("reduce scope kept cost %v, want the original 3.0", e.Reduce.BestCost)
	}
	if e.Jobs != 2 {
		t.Fatalf("Jobs = %d, want 2", e.Jobs)
	}
}

func TestKnowledgeBaseMergeFillsEmptyScope(t *testing.T) {
	kb := NewKnowledgeBase()
	first := mrconf.Default().With(mrconf.IOSortMB, 200)
	second := mrconf.Default().With(mrconf.IOSortMB, 300)
	kb.Update("k", Entry{Config: &first, Map: stateWithCost(2.0)})
	kb.Update("k", Entry{Reduce: stateWithCost(1.0)})
	e, _ := kb.Get("k")
	if !e.Map.HaveBest || !e.Reduce.HaveBest {
		t.Fatalf("merge lost a scope: %+v", e)
	}
	if e.Config == nil || e.Config.SortMB() != 200 {
		t.Fatalf("an update without a config dropped the stored one: %+v", e)
	}
	kb.Update("k", Entry{Config: &second})
	if e, _ := kb.Get("k"); e.Config.SortMB() != 300 || e.Jobs != 3 {
		t.Fatalf("a new config did not replace the stored one: %+v", e)
	}
}

// TestKnowledgeBaseConcurrentUpdates exercises the mutex under the race
// detector: aggressive test runs updating the same class concurrently.
func TestKnowledgeBaseConcurrentUpdates(t *testing.T) {
	kb := NewKnowledgeBase()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				kb.Update("k", Entry{Map: stateWithCost(float64(i*50+j) + 1)})
				kb.Get("k")
				kb.Len()
			}
		}(i)
	}
	wg.Wait()
	e, _ := kb.Get("k")
	if e.Map.BestCost != 1 {
		t.Fatalf("concurrent merge kept %v, want the global min 1", e.Map.BestCost)
	}
	if e.Jobs != 16*50 {
		t.Fatalf("Jobs = %d, want %d", e.Jobs, 16*50)
	}
}

func TestKnowledgeBaseLoadErrors(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.json")
	if _, err := Load(missing); err == nil || !strings.Contains(err.Error(), missing) {
		t.Fatalf("missing file: err = %v, want one naming %s", err, missing)
	}
	bad := writeFile(t, "{")
	if _, err := Load(bad); err == nil || !strings.Contains(err.Error(), bad) {
		t.Fatalf("corrupt file: err = %v, want one naming %s", err, bad)
	}
}

func TestKnowledgeBaseLoadOrNew(t *testing.T) {
	kb, err := LoadOrNew(filepath.Join(t.TempDir(), "nope.json"))
	if err != nil || kb.Len() != 0 {
		t.Fatalf("missing file: kb=%v err=%v, want an empty knowledge base", kb, err)
	}
	if _, err := LoadOrNew(writeFile(t, `{"k": {"map": {`)); err == nil {
		t.Fatal("truncated file loaded")
	}
	if _, err := LoadOrNew(t.TempDir()); err == nil {
		t.Fatal("a directory loaded as a knowledge base")
	}
}

// A search-state file written before the two stores merged has the
// merged format's shape: it loads as-is and saves back byte for byte.
func TestKnowledgeBaseLoadsPreMergeWarmStartFile(t *testing.T) {
	path := filepath.Join("testdata", "premerge_warmstart.json")
	kb, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := kb.Get(Key("terasort/20GB", 20*1024))
	if !ok || e.Config != nil || !e.Map.HaveBest || !e.Reduce.HaveBest || e.Jobs != 2 {
		t.Fatalf("pre-merge entry mangled: ok=%v %+v", ok, e)
	}
	out := filepath.Join(t.TempDir(), "kb.json")
	if err := kb.Save(out); err != nil {
		t.Fatal(err)
	}
	want, _ := os.ReadFile(path)
	got, _ := os.ReadFile(out)
	if !bytes.Equal(got, want) {
		t.Fatalf("re-saved pre-merge file differs:\n%s\nwant:\n%s", got, want)
	}
}

// Configuration files written before the merge ({configs, statics}, or
// the older flat key → config map) carry cluster-qualified keys the
// merged store does not use, and entries no longer carry category-1
// statics; Load rejects all of them, naming the file.
func TestKnowledgeBaseRejectsPreMergeKBFiles(t *testing.T) {
	paths := []string{
		filepath.Join("testdata", "premerge_kb.json"),
		writeFile(t, `{"terasort|paper-19node|2^15MB": {"mapreduce.task.io.sort.mb": 400}}`),
		writeFile(t, `{"configs": {}}`),
		writeFile(t, `{"k": {}}`),
		writeFile(t, `{"k": {"jobs": 1, "statics": {"num_reduces": 9, "slowstart": 0.5}}}`),
	}
	for _, path := range paths {
		if _, err := Load(path); err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("Load(%s): err = %v, want a rejection naming the file", path, err)
		}
	}
}
