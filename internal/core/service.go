package core

import (
	"repro/internal/hdfs"
	"repro/internal/mapreduce"
	"repro/internal/mrconf"
	"repro/internal/whatif"
	"repro/internal/yarn"
)

// Service is the deployment facade: the online-tuner daemon of Fig 2
// that co-exists with the resource manager and tunes every job
// submitted through it ("MRONLINE provides the ability to tune
// multiple jobs' performance in a multi-tenant environment"). It
// attaches a per-job Tuner, consults the knowledge base for a starting
// configuration, and deposits aggressive results back for future runs.
type Service struct {
	rm *yarn.ResourceManager
	fs *hdfs.FileSystem
	kb *KnowledgeBase

	// Strategy applied to submitted jobs (default Conservative).
	Strategy Strategy
	// TuneStaticParams, with the Aggressive strategy, additionally runs
	// a what-if sweep after each test run to recommend the category-1
	// parameters (reducer count, slowstart) for future submissions —
	// the paper's stated future work, closed via the simulator.
	TuneStaticParams bool
	// Seed derives per-job tuner randomness.
	Seed uint64

	nextJob uint64
}

// ServiceOptions configure NewService.
type ServiceOptions struct {
	Strategy         Strategy
	Seed             uint64
	TuneStaticParams bool
	// KnowledgeBase to consult/extend; a fresh one when nil.
	KnowledgeBase *KnowledgeBase
}

// NewService wires a service to a resource manager and file system.
func NewService(rm *yarn.ResourceManager, fs *hdfs.FileSystem, opts ServiceOptions) *Service {
	if opts.Strategy == 0 {
		opts.Strategy = Conservative
	}
	kb := opts.KnowledgeBase
	if kb == nil {
		kb = NewKnowledgeBase()
	}
	return &Service{
		rm: rm, fs: fs, kb: kb,
		Strategy: opts.Strategy, Seed: opts.Seed,
		TuneStaticParams: opts.TuneStaticParams,
	}
}

// KnowledgeBase returns the service's (shared) knowledge base.
func (s *Service) KnowledgeBase() *KnowledgeBase { return s.kb }

// Submit runs a job through MRONLINE:
//
//   - if the knowledge base holds a tuned configuration for this
//     application and input scale, the job starts from it (an entry
//     with search state alone is not a hit);
//   - otherwise the configured strategy's tuner is attached;
//   - a completed aggressive run deposits its best configuration and
//     search state.
//
// The caller's Controller, if any, is preserved (the tuner is only
// attached when the spec has none).
func (s *Service) Submit(spec mapreduce.Spec, onDone func(mapreduce.Result)) *mapreduce.Job {
	b := spec.Benchmark
	key := Key(b.Name, b.InputSizeMB)

	var tuner *Tuner
	if ent, _ := s.kb.Get(key); ent.Config != nil {
		// Known application: run with the stored configuration, no
		// tuning interference. Apply stored category-1 recommendations
		// too — they can only be set at submission time.
		spec.BaseConfig = *ent.Config
		if p := ent.Statics; p != nil {
			if p.NumReduces > 0 {
				spec.Benchmark.NumReduces = p.NumReduces
			}
			if p.Slowstart > 0 {
				spec.SlowstartFraction = p.Slowstart
			}
		}
	} else if spec.Controller == nil {
		base := spec.BaseConfig
		if base.NumOverrides() == 0 {
			base = mrconf.Default()
		}
		tuner = NewTuner(spec.Name, b.NumMaps, b.NumReduces, base,
			TunerOptions{Strategy: s.Strategy, Seed: s.Seed + s.nextJob})
		spec.Controller = tuner
	}
	s.nextJob++

	return mapreduce.Submit(s.rm, s.fs, spec, func(res mapreduce.Result) {
		if tuner != nil && s.Strategy == Aggressive && !res.Failed {
			best := tuner.BestConfig()
			ent := tuner.ExportWarm()
			ent.Config = &best
			if s.TuneStaticParams {
				ent.Statics = s.recommendStatics(spec, res, best)
			}
			s.kb.Update(key, ent)
		}
		if onDone != nil {
			onDone(res)
		}
	})
}

// recommendStatics runs the what-if sweep on a calibrated copy of the
// observed job and returns the best category-1 settings.
func (s *Service) recommendStatics(spec mapreduce.Spec, res mapreduce.Result, cfg mrconf.Config) *StaticParams {
	calibrated := whatif.CalibrateFromRun(spec.Benchmark, res)
	best := whatif.Recommend(whatif.Question{
		Benchmark:  calibrated,
		Config:     cfg,
		Slowstarts: []float64{0.05, 0.5},
		Seed:       s.Seed + 1,
	})
	return &StaticParams{NumReduces: best.NumReduces, Slowstart: best.Slowstart}
}
