// Expedited test runs (use case 1, paper §2.3): tune an application
// that will run many times. MRONLINE's aggressive gray-box hill
// climbing tries dozens of configurations inside ONE test run — where
// classic offline tuning needs 20-40 runs — then the best
// configuration is stored in a knowledge base and reused for
// production runs of wordcount over the Wikipedia corpus.
//
//	go run ./examples/expedited
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mrconf"
	"repro/internal/workload"
)

func main() {
	env := experiments.Env{Seed: 42}
	b, err := workload.ByName("wordcount/Wikipedia")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("wordcount over Wikipedia (%.1f GB, %d maps, %d reduces)\n\n",
		b.InputSizeMB/1024, b.NumMaps, b.NumReduces)

	// Baseline: how long production runs take with the defaults.
	def := env.RunOne(b, mrconf.Default(), nil)
	defSecs, _ := def.Secs()
	fmt.Printf("1. production run, default config:   %5.0f s\n", defSecs)

	// One aggressive test run. It is slower than a normal run (waves
	// are held while each batch of sampled configurations is measured)
	// but it replaces dozens of trial runs. It deposits its best
	// configuration and search state in the knowledge base, keyed by
	// app and input scale.
	env.KB = core.NewKnowledgeBase()
	_, test := env.AggressiveTestRun(b)
	testSecs, _ := test.Secs()
	fmt.Printf("2. MRONLINE aggressive test run:      %5.0f s (tries %s waves of LHS samples)\n",
		testSecs, "m=24 global / n=16 local")

	// Persist the knowledge base: one file per cluster.
	path := filepath.Join(os.TempDir(), "mronline-kb.json")
	if err := env.KB.Save(path); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("3. best config stored in %s\n", path)

	// Production runs from now on load the tuned configuration.
	kb, err := core.Load(path)
	if err != nil {
		log.Fatal(err)
	}
	ent, _ := kb.Get(core.Key(b.Name, b.InputSizeMB))
	cfg := *ent.Config
	tuned := env.RunOne(b, cfg, nil)
	// A job that fails gives up early; its time is no result.
	secs, ok := tuned.Secs()
	if !ok {
		fmt.Printf("4. production run, tuned config:      failed after %.0f s\n", secs)
		return
	}
	imp, _ := experiments.Gain(def, tuned)
	fmt.Printf("4. production run, tuned config:      %5.0f s  (%.0f%% faster)\n\n", secs, 100*imp)

	fmt.Printf("spilled records: %.2e -> %.2e (optimal %.2e)\n",
		def.Counters.SpilledRecords(), tuned.Counters.SpilledRecords(),
		tuned.Counters.CombineOutputRecs)
	fmt.Println("\ntuned configuration:")
	cfg.EachOverride(func(p mrconf.Param, v float64) {
		fmt.Printf("  %-52s %g\n", p.Name, v)
	})
}
