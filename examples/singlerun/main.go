// Fast single run (use case 2, paper §2.3): a job that runs once and
// is not worth a tuning campaign. MRONLINE's conservative strategy
// watches the first wave of tasks, then adjusts buffers, container
// sizes, and CPU allocation for every task launched afterwards —
// without ever interfering with scheduling.
//
// This example traces how the configuration evolves mid-job for the
// shuffle-heavy bigram benchmark on the Freebase corpus.
//
//	go run ./examples/singlerun
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mapreduce"
	"repro/internal/mrconf"
	"repro/internal/workload"
)

// tracer wraps the tuner to print the per-task configuration the
// dynamic configurator hands out as the job progresses.
type tracer struct {
	*core.Tuner
	lastMap mrconf.Config
	printed int
}

func (tr *tracer) TaskConfig(t *mapreduce.Task, base mrconf.Config) mrconf.Config {
	cfg := tr.Tuner.TaskConfig(t, base)
	if t.Type == mapreduce.MapTask && !cfg.Equal(tr.lastMap) && tr.printed < 6 {
		tr.lastMap = cfg
		tr.printed++
		fmt.Printf("  map %4d launches with: %s\n", t.ID, cfg)
	}
	return cfg
}

func main() {
	env := experiments.Env{Seed: 42}
	b, err := workload.ByName("bigram/Freebase")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bigram over Freebase (%.1f GB input, %.1f GB shuffled)\n\n",
		b.InputSizeMB/1024, b.ShuffleSizeMB/1024)

	def := env.RunOne(b, mrconf.Default(), nil)
	defSecs, _ := def.Secs()
	fmt.Printf("default configuration: %.0f s\n\n", defSecs)

	fmt.Println("conservative tuning, configuration evolution:")
	tuner := core.NewTuner(b.Name, b.NumMaps, b.NumReduces, mrconf.Default(),
		core.TunerOptions{Strategy: core.Conservative, Seed: 42})
	res := env.RunOne(b, mrconf.Default(), &tracer{Tuner: tuner, lastMap: mrconf.Default()})

	// A job that fails gives up early; its time is no result.
	if secs, ok := res.Secs(); !ok {
		fmt.Printf("\nMRONLINE single run:   failed after %.0f s (a task ran out of attempts)\n", secs)
	} else {
		imp, _ := experiments.Gain(def, res)
		fmt.Printf("\nMRONLINE single run:   %.0f s (%.0f%% faster, no test runs)\n", secs, 100*imp)
	}
	fmt.Printf("spilled records:       %.2e -> %.2e\n",
		def.Counters.SpilledRecords(), res.Counters.SpilledRecords())
	fmt.Printf("map memory util:       %.0f%% -> %.0f%%\n",
		def.MapMemUtil*100, res.MapMemUtil*100)
}
