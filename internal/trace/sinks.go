package trace

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// Sink consumes timeline events as they happen. The continuous-serving
// path emits tens of events per job for thousands of jobs, so sinks are
// the contract that lets callers choose their memory/fidelity tradeoff:
//
//	*Recorder   keeps every event in memory (grows with the run)
//	Discard     drops everything (zero cost)
//	*StatsSink  folds events into per-class aggregates (flat memory)
//
// Add must not retain the Event past the call (it is passed by value,
// so this is automatic for the sinks here). Sinks are not safe for
// concurrent use; the simulation delivers events single-threaded.
type Sink interface {
	Add(Event)
}

var _ Sink = (*Recorder)(nil)

// Discard is a Sink that drops every event. Use it instead of a nil
// interface so call sites never need a nil guard.
var Discard Sink = discardSink{}

type discardSink struct{}

func (discardSink) Add(Event) {}

// Tee fans every event out to each sink in order. Use it to combine a
// flat-memory aggregate (StatsSink) with a retained or streamed copy.
func Tee(sinks ...Sink) Sink {
	out := make(teeSink, len(sinks))
	copy(out, sinks)
	return out
}

type teeSink []Sink

func (t teeSink) Add(e Event) {
	for _, s := range t {
		s.Add(e)
	}
}

// durBuckets is the geometric histogram resolution of ClassStats:
// bucket i covers durations [durBase^i, durBase^(i+1)) seconds, so 64
// buckets at ratio 1.25 span one second to ~1.6e6 s (18 days) with
// ≤25% relative error — plenty for a latency table without retaining
// per-job samples.
const (
	durBuckets = 64
	durBase    = 1.25
)

// ClassStats aggregates one job class's outcomes. What it deliberately
// drops relative to a Recorder: per-event timestamps, node placement,
// attempt identity, and exact latency samples (durations survive only
// as min/max/sum and the geometric histogram).
type ClassStats struct {
	Jobs        int // finished jobs
	Submitted   int
	MapStarts   int
	MapFinishes int
	RedStarts   int
	RedFinishes int
	OOMs        int
	Kills       int
	Failures    int
	FetchFails  int
	MapReexecs  int

	DurMin float64
	DurMax float64
	DurSum float64

	durHist [durBuckets]int
}

// MeanDuration returns the mean completion latency of finished jobs.
func (c *ClassStats) MeanDuration() float64 {
	if c.Jobs == 0 {
		return 0
	}
	return c.DurSum / float64(c.Jobs)
}

// ApproxPercentile returns the p-th percentile of job latency from the
// geometric histogram (≤25% relative error), p in [0, 100].
func (c *ClassStats) ApproxPercentile(p float64) float64 {
	if c.Jobs == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(c.Jobs)))
	if rank < 1 {
		rank = 1
	}
	seen := 0
	for i, n := range c.durHist {
		seen += n
		if seen >= rank {
			// Geometric midpoint of the bucket.
			return math.Pow(durBase, float64(i)+0.5)
		}
	}
	return c.DurMax
}

// merge folds o into c: counters and the histogram sum; the duration
// extremes only move when o actually finished jobs.
func (c *ClassStats) merge(o *ClassStats) {
	if o.Jobs > 0 {
		if c.Jobs == 0 || o.DurMin < c.DurMin {
			c.DurMin = o.DurMin
		}
		if o.DurMax > c.DurMax {
			c.DurMax = o.DurMax
		}
	}
	c.Jobs += o.Jobs
	c.Submitted += o.Submitted
	c.MapStarts += o.MapStarts
	c.MapFinishes += o.MapFinishes
	c.RedStarts += o.RedStarts
	c.RedFinishes += o.RedFinishes
	c.OOMs += o.OOMs
	c.Kills += o.Kills
	c.Failures += o.Failures
	c.FetchFails += o.FetchFails
	c.MapReexecs += o.MapReexecs
	c.DurSum += o.DurSum
	for i, n := range o.durHist {
		c.durHist[i] += n
	}
}

func (c *ClassStats) observeDuration(d float64) {
	if c.Jobs == 0 || d < c.DurMin {
		c.DurMin = d
	}
	if d > c.DurMax {
		c.DurMax = d
	}
	c.DurSum += d
	c.Jobs++
	i := 0
	if d > 1 {
		i = int(math.Log(d) / math.Log(durBase))
	}
	if i >= durBuckets {
		i = durBuckets - 1
	}
	c.durHist[i]++
}

// StatsSink folds the event stream into per-class counters, keeping
// memory proportional to the number of job *classes* plus the jobs
// currently in flight — not the jobs ever submitted. It is the sink
// the continuous-serving benchmark asserts flat memory with. A job's
// class is its name without the trailing "-<suffix>" (so
// "terasort-00042" → "terasort"); cluster events (node up/down) land
// in class "cluster".
type StatsSink struct {
	events   int
	classes  map[string]*ClassStats
	order    []string
	inflight map[string]float64 // job name → submit time
}

// NewStatsSink returns an empty aggregating sink.
func NewStatsSink() *StatsSink {
	return &StatsSink{
		classes:  make(map[string]*ClassStats),
		inflight: make(map[string]float64),
	}
}

// classify strips the trailing "-<suffix>" from a job name.
func classify(job string) string {
	for i := len(job) - 1; i >= 0; i-- {
		if job[i] == '-' {
			return job[:i]
		}
	}
	return job
}

func (s *StatsSink) class(job string) *ClassStats {
	name := classify(job)
	c, ok := s.classes[name]
	if !ok {
		c = &ClassStats{}
		s.classes[name] = c
		s.order = append(s.order, name) //mrlint:ignore retained-append one entry per job class, bounded by the mix not the stream
	}
	return c
}

// Add folds one event into its class's aggregate. Per-job state (the
// submit time) lives only between JobSubmit and JobFinish.
func (s *StatsSink) Add(e Event) {
	s.events++
	c := s.class(e.Job)
	switch e.Kind {
	case JobSubmit:
		c.Submitted++
		s.inflight[e.Job] = e.Time
	case JobFinish:
		if t0, ok := s.inflight[e.Job]; ok {
			c.observeDuration(e.Time - t0)
			delete(s.inflight, e.Job)
		}
	case TaskStart:
		if e.TaskType == "map" {
			c.MapStarts++
		} else {
			c.RedStarts++
		}
	case TaskFinish:
		if e.TaskType == "map" {
			c.MapFinishes++
		} else {
			c.RedFinishes++
		}
	case TaskOOM:
		c.OOMs++
	case TaskKilled:
		c.Kills++
	case TaskFailed:
		c.Failures++
	case FetchFail:
		c.FetchFails++
	case ReexecMap:
		c.MapReexecs++
	}
}

// EventCount returns the total number of events ingested — the flat-
// memory witness: it grows with the stream while the sink's retained
// state does not.
func (s *StatsSink) EventCount() int { return s.events }

// Classes returns the class names sorted alphabetically.
func (s *StatsSink) Classes() []string {
	out := make([]string, len(s.order))
	copy(out, s.order)
	sort.Strings(out)
	return out
}

// Overall merges every class into one fleet-level aggregate: counters
// sum, duration min/max/sum and the geometric histogram fold together,
// so MeanDuration and ApproxPercentile work on the result. Classes
// merge in sorted-name order so the float sums are deterministic.
func (s *StatsSink) Overall() ClassStats {
	var out ClassStats
	for _, name := range s.Classes() {
		out.merge(s.classes[name])
	}
	return out
}

// Merge folds another sink's aggregates into s, class by class in o's
// insertion order (names are already classified, so o's classes land
// verbatim). Event counts sum and o's in-flight jobs carry over (job
// names are assumed unique across the merged sinks). The serving path
// uses this to fold each cell's private sink into the run-level one.
func (s *StatsSink) Merge(o *StatsSink) {
	s.events += o.events
	for job, t := range o.inflight {
		s.inflight[job] = t
	}
	for _, name := range o.order {
		c, ok := s.classes[name]
		if !ok {
			c = &ClassStats{}
			s.classes[name] = c
			s.order = append(s.order, name) //mrlint:ignore retained-append one entry per job class, bounded by the mix not the stream
		}
		c.merge(o.classes[name])
	}
}

// WriteSummary renders a deterministic per-class table, classes in
// alphabetical order.
func (s *StatsSink) WriteSummary(w io.Writer) {
	fmt.Fprintf(w, "%-14s %6s %6s %6s %8s %8s %8s\n",
		"class", "jobs", "maps", "reds", "mean(s)", "p99~(s)", "max(s)")
	for _, name := range s.Classes() {
		c := s.classes[name]
		fmt.Fprintf(w, "%-14s %6d %6d %6d %8.0f %8.0f %8.0f\n",
			name, c.Jobs, c.MapFinishes, c.RedFinishes,
			c.MeanDuration(), c.ApproxPercentile(99), c.DurMax)
	}
}
