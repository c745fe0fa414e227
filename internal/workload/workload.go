// Package workload defines the benchmark applications and datasets of
// the MRONLINE evaluation (paper Table 3): Bigram, Inverted index,
// Wordcount and Text search over the Wikipedia and Freebase corpora,
// Terasort over synthetic data, and the compute-bound BBP π digit
// job. Each benchmark carries the data-flow and CPU characteristics
// the simulator needs; the Table 3 input/shuffle/output sizes are
// reproduced exactly by deriving per-app selectivities from them.
package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// JobType is the paper's three-way classification (§8.1).
type JobType string

const (
	MapIntensive     JobType = "Map"
	ShuffleIntensive JobType = "Shuffle"
	ComputeIntensive JobType = "Compute"
)

// Profile captures how an application's map and reduce functions
// transform data and consume resources.
type Profile struct {
	Name string

	// MapCPUPerMB is map-function CPU in core-seconds per input MB.
	MapCPUPerMB float64
	// MapFixedCPUSecs is per-map-task CPU independent of input size
	// (BBP's digit computation).
	MapFixedCPUSecs float64
	// MapFixedOutputMB is per-map-task output independent of input
	// size (BBP emits its digits regardless of having no input).
	MapFixedOutputMB float64
	// ReduceCPUPerMB is reduce-function CPU per MB of reduce input.
	ReduceCPUPerMB float64
	// SortCPUPerMB is the framework's sort/merge CPU per MB per pass.
	SortCPUPerMB float64

	// RawMapSelectivity is map-output bytes per input byte before the
	// combiner runs.
	RawMapSelectivity float64
	// CombinerReduction is combiner-output bytes per map-output byte
	// (1 = no combiner).
	CombinerReduction float64
	// ReduceSelectivity is job-output bytes per reduce-input byte.
	ReduceSelectivity float64

	// RecordBytes is the average combined map-output record size.
	RecordBytes float64

	// MapWorkingSetMB / ReduceWorkingSetMB is user-code memory demand
	// beyond the framework buffers.
	MapWorkingSetMB    float64
	ReduceWorkingSetMB float64
}

// Dataset describes an input corpus.
type Dataset struct {
	Name   string
	SizeMB float64
	// SkewCV is the coefficient of variation of per-split work,
	// modelling the data skew the paper cites as a reason for
	// per-task configurations.
	SkewCV float64
	// CPUFactor scales per-record CPU cost: Freebase's structured
	// records are costlier to parse than Wikipedia prose, which is why
	// Table 3 classifies inverted index and text search as
	// compute-intensive on Freebase.
	CPUFactor float64
}

// The paper's corpora. Sizes follow Table 3 (GB are decimal).
var (
	Wikipedia = Dataset{Name: "Wikipedia", SizeMB: 90.5 * 1024, SkewCV: 0.15, CPUFactor: 1.0}
	Freebase  = Dataset{Name: "Freebase", SizeMB: 100.8 * 1024, SkewCV: 0.25, CPUFactor: 1.3}
)

// Synthetic returns a Teragen-style uniform dataset of the given size.
func Synthetic(sizeMB float64) Dataset {
	return Dataset{Name: "synthetic", SizeMB: sizeMB, SkewCV: 0.05, CPUFactor: 1.0}
}

// Benchmark is one Table 3 row: an application bound to a dataset with
// its task counts and the paper-reported data volumes.
type Benchmark struct {
	Name    string
	Profile Profile
	Dataset Dataset

	InputSizeMB   float64
	ShuffleSizeMB float64
	OutputSizeMB  float64
	NumMaps       int
	NumReduces    int
	Type          JobType
}

// SplitSizeMB returns the input split size (Table 3 map counts imply
// ~137 MB splits for the corpora).
func (b Benchmark) SplitSizeMB() float64 {
	if b.NumMaps == 0 || b.InputSizeMB == 0 {
		return 0
	}
	return b.InputSizeMB / float64(b.NumMaps)
}

// baseProfiles holds per-application constants; the data-dependent
// selectivities are filled in per benchmark from the Table 3 sizes.
var baseProfiles = map[string]Profile{
	"bigram": {
		Name: "bigram", MapCPUPerMB: 0.018, ReduceCPUPerMB: 0.010,
		SortCPUPerMB: 0.003, RawMapSelectivity: 1.8, RecordBytes: 25e-6,
		MapWorkingSetMB: 300, ReduceWorkingSetMB: 250,
	},
	"invertedindex": {
		Name: "invertedindex", MapCPUPerMB: 0.020, ReduceCPUPerMB: 0.012,
		SortCPUPerMB: 0.003, RawMapSelectivity: 1.0, RecordBytes: 60e-6,
		MapWorkingSetMB: 250, ReduceWorkingSetMB: 250,
	},
	"wordcount": {
		Name: "wordcount", MapCPUPerMB: 0.015, ReduceCPUPerMB: 0.008,
		SortCPUPerMB: 0.003, RawMapSelectivity: 1.1, RecordBytes: 20e-6,
		MapWorkingSetMB: 200, ReduceWorkingSetMB: 150,
	},
	"textsearch": {
		Name: "textsearch", MapCPUPerMB: 0.042, ReduceCPUPerMB: 0.006,
		SortCPUPerMB: 0.003, RawMapSelectivity: 0.06, RecordBytes: 100e-6,
		MapWorkingSetMB: 100, ReduceWorkingSetMB: 100,
	},
	"terasort": {
		Name: "terasort", MapCPUPerMB: 0.004, ReduceCPUPerMB: 0.004,
		SortCPUPerMB: 0.003, RawMapSelectivity: 1.0, RecordBytes: 100e-6,
		MapWorkingSetMB: 50, ReduceWorkingSetMB: 100,
	},
	"bbp": {
		Name: "bbp", MapCPUPerMB: 0, MapFixedCPUSecs: 40, ReduceCPUPerMB: 0.01,
		SortCPUPerMB: 0.003, RawMapSelectivity: 1.0, CombinerReduction: 1.0,
		RecordBytes: 50e-6, MapWorkingSetMB: 280, ReduceWorkingSetMB: 100,
	},
}

// combinerFor gives each app's combiner strength (output/input bytes of
// the combiner on one spill's worth of data); 1 means no combiner.
var combinerFor = map[string]float64{
	"bigram":        0.55,
	"invertedindex": 0.45,
	"wordcount":     0.30,
	"textsearch":    0.50,
	"terasort":      1.0,
	"bbp":           1.0,
}

// mkBenchmark derives the selectivities that make the model reproduce
// the Table 3 shuffle and output sizes exactly.
func mkBenchmark(app string, ds Dataset, shuffleMB, outputMB float64, maps, reduces int, jt JobType) Benchmark {
	p, ok := baseProfiles[app]
	if !ok {
		panic(fmt.Sprintf("workload: unknown app %q", app))
	}
	p.CombinerReduction = combinerFor[app]
	if ds.SizeMB > 0 {
		// shuffle = input * raw * combiner  =>  raw = shuffle/(input*comb)
		p.RawMapSelectivity = shuffleMB / (ds.SizeMB * p.CombinerReduction)
	}
	if shuffleMB > 0 {
		p.ReduceSelectivity = outputMB / shuffleMB
	}
	if ds.CPUFactor > 0 {
		p.MapCPUPerMB *= ds.CPUFactor
		p.ReduceCPUPerMB *= ds.CPUFactor
	}
	return Benchmark{
		Name:          fmt.Sprintf("%s/%s", app, ds.Name),
		Profile:       p,
		Dataset:       ds,
		InputSizeMB:   ds.SizeMB,
		ShuffleSizeMB: shuffleMB,
		OutputSizeMB:  outputMB,
		NumMaps:       maps,
		NumReduces:    reduces,
		Type:          jt,
	}
}

// Suite returns all ten Table 3 rows.
func Suite() []Benchmark {
	return []Benchmark{
		mkBenchmark("bigram", Wikipedia, 80.8*1024, 27.6*1024, 676, 200, ShuffleIntensive),
		mkBenchmark("invertedindex", Wikipedia, 38*1024, 10.3*1024, 676, 200, MapIntensive),
		mkBenchmark("wordcount", Wikipedia, 30.3*1024, 8.6*1024, 676, 200, MapIntensive),
		mkBenchmark("textsearch", Wikipedia, 2.3*1024, 469, 676, 200, ComputeIntensive),
		mkBenchmark("bigram", Freebase, 84.8*1024, 77.8*1024, 752, 200, ShuffleIntensive),
		mkBenchmark("invertedindex", Freebase, 21*1024, 11*1024, 752, 200, ComputeIntensive),
		mkBenchmark("wordcount", Freebase, 16.7*1024, 9.4*1024, 752, 200, MapIntensive),
		mkBenchmark("textsearch", Freebase, 906, 229, 752, 200, ComputeIntensive),
		Terasort(100, 752, 200),
		BBP(500000, 100),
	}
}

// ByName returns the Suite entry whose Name matches, e.g.
// "wordcount/Wikipedia" or "terasort/synthetic".
func ByName(name string) (Benchmark, error) {
	for _, b := range Suite() {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("workload: no benchmark %q", name)
}

// terasortMaps reproduces the paper's map counts for the Fig 13 data
// points; other sizes interpolate at the same ~136 MB split size.
var terasortMaps = map[int]int{2: 16, 6: 46, 10: 76, 20: 150, 60: 448, 100: 752}

// Terasort builds a synthetic-sort benchmark of sizeGB. Zero task
// counts pick the paper's values (maps per the published runs,
// reducers ≈ maps/4 capped at 200).
func Terasort(sizeGB int, maps, reduces int) Benchmark {
	if maps == 0 {
		if m, ok := terasortMaps[sizeGB]; ok {
			maps = m
		} else {
			maps = int(math.Ceil(float64(sizeGB) * 1024 / 136))
		}
	}
	if reduces == 0 {
		reduces = maps / 4
		if reduces > 200 {
			reduces = 200
		}
		if reduces < 1 {
			reduces = 1
		}
	}
	sizeMB := float64(sizeGB) * 1024
	b := mkBenchmark("terasort", Synthetic(sizeMB), sizeMB, sizeMB, maps, reduces, ShuffleIntensive)
	b.Name = fmt.Sprintf("terasort/%dGB", sizeGB)
	return b
}

// BBP builds the Bailey–Borwein–Plouffe π benchmark computing `digits`
// exact digits across `maps` map tasks (Table 3: 100 maps, 1 reduce,
// 252 KB shuffled, no input or output data).
func BBP(digits, maps int) Benchmark {
	p := baseProfiles["bbp"]
	p.CombinerReduction = 1
	p.ReduceSelectivity = 0
	// BBP cost grows superlinearly with digit position; calibrate the
	// fixed per-map cost so 0.5e6 digits ≈ the paper's scale.
	p.MapFixedCPUSecs = float64(digits) / 500000 * 40
	p.MapFixedOutputMB = (252.0 / 1024) / float64(maps)
	return Benchmark{
		Name:          fmt.Sprintf("bbp/%dk", digits/1000),
		Profile:       p,
		Dataset:       Dataset{Name: "none", SizeMB: 0, SkewCV: 0.02},
		InputSizeMB:   0,
		ShuffleSizeMB: 252.0 / 1024,
		OutputSizeMB:  0,
		NumMaps:       maps,
		NumReduces:    1,
		Type:          ComputeIntensive,
	}
}

// Splits returns per-map-task skew multipliers (mean 1, CV per the
// dataset) drawn from a lognormal distribution — the heterogeneity
// that motivates per-task configuration in the paper.
func (b Benchmark) Splits(rng *rand.Rand) []float64 {
	out := make([]float64, b.NumMaps)
	cv := b.Dataset.SkewCV
	sigma := math.Sqrt(math.Log(1 + float64(cv*cv)))
	mu := float64(-sigma * sigma / 2)
	for i := range out {
		out[i] = math.Exp(mu + float64(sigma*rng.NormFloat64()))
	}
	return out
}
