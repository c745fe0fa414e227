// Package trace records job execution timelines: task lifecycle
// events with timestamps and node placement. Traces export as JSON
// Lines for external tooling, and render as an ASCII per-node
// utilization Gantt for quick terminal inspection — the observability
// layer a performance-tuning system needs.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Kind classifies a timeline event.
type Kind string

const (
	JobSubmit  Kind = "job_submit"
	TaskStart  Kind = "task_start"
	TaskFinish Kind = "task_finish"
	TaskOOM    Kind = "task_oom"
	TaskKilled Kind = "task_killed"
	JobFinish  Kind = "job_finish"

	// Fault-injection and recovery events (see internal/faults).
	NodeDown   Kind = "node_down"   // a node crashed (Job is "cluster")
	NodeUp     Kind = "node_up"     // a crashed node was restored
	TaskFailed Kind = "task_failed" // an attempt failed (non-OOM)
	FetchFail  Kind = "fetch_fail"  // a shuffle fetch failed
	ReexecMap  Kind = "reexec_map"  // a completed map re-runs: output lost
)

// Event is one timeline entry.
type Event struct {
	Time     float64 `json:"t"`
	Job      string  `json:"job"`
	Kind     Kind    `json:"kind"`
	TaskType string  `json:"task_type,omitempty"`
	Task     int     `json:"task_id,omitempty"` // task index within its type
	Attempt  int     `json:"attempt,omitempty"`
	Node     string  `json:"node,omitempty"`
	Detail   string  `json:"detail,omitempty"`
}

// Recorder accumulates events. The zero value is ready to use; a nil
// *Recorder is a valid no-op sink, so call sites need no guards.
type Recorder struct {
	events []Event
}

// Add appends one event. No-op on a nil recorder.
func (r *Recorder) Add(e Event) {
	if r == nil {
		return
	}
	r.events = append(r.events, e) //mrlint:ignore retained-append Recorder is the opt-in retained sink; serving paths use StatsSink
}

// Events returns a copy of the recorded events in insertion order
// (which is time order, since the simulation is single-threaded).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// WriteJSONL streams the trace as JSON Lines.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range r.Events() {
		if err := enc.Encode(e); err != nil {
			return fmt.Errorf("trace: encode event: %w", err)
		}
	}
	return nil
}

// span is one task occupancy interval on a node.
type span struct {
	node       string
	start, end float64
	taskType   string
}

// spans pairs start/finish events per (job, type, id, attempt).
func (r *Recorder) spans() []span {
	type key struct {
		job, tt string
		id, att int
	}
	open := map[key]Event{}
	var out []span
	for _, e := range r.Events() {
		k := key{e.Job, e.TaskType, e.Task, e.Attempt}
		switch e.Kind {
		case TaskStart:
			open[k] = e
		case TaskFinish, TaskOOM, TaskKilled, TaskFailed:
			if s, ok := open[k]; ok {
				out = append(out, span{node: s.Node, start: s.Time, end: e.Time, taskType: s.TaskType})
				delete(open, k)
			}
		}
	}
	return out
}

// Gantt renders a per-node occupancy chart of the trace, `width`
// character columns wide. Each cell shows how many tasks overlapped
// that node in that time bucket (blank, ▁▂▃▄▅▆▇█ ramp).
func (r *Recorder) Gantt(width int) string {
	if width < 10 {
		width = 10
	}
	spans := r.spans()
	if len(spans) == 0 {
		return "(empty trace)\n"
	}
	tmin, tmax := spans[0].start, spans[0].end
	nodes := map[string]bool{}
	for _, s := range spans {
		if s.start < tmin {
			tmin = s.start
		}
		if s.end > tmax {
			tmax = s.end
		}
		nodes[s.node] = true
	}
	if tmax <= tmin {
		tmax = tmin + 1
	}
	names := make([]string, 0, len(nodes))
	for n := range nodes {
		names = append(names, n)
	}
	sort.Strings(names)

	ramp := []rune(" ▁▂▃▄▅▆▇█")
	bucket := (tmax - tmin) / float64(width)
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %s\n", "node", timeAxis(tmin, tmax, width))
	for _, name := range names {
		counts := make([]int, width)
		for _, s := range spans {
			if s.node != name {
				continue
			}
			lo := int((s.start - tmin) / bucket)
			hi := int((s.end - tmin) / bucket)
			if hi >= width {
				hi = width - 1
			}
			for i := lo; i <= hi; i++ {
				counts[i]++
			}
		}
		row := make([]rune, width)
		for i, c := range counts {
			idx := c
			if idx >= len(ramp) {
				idx = len(ramp) - 1
			}
			row[i] = ramp[idx]
		}
		fmt.Fprintf(&b, "%-8s %s\n", name, string(row))
	}
	return b.String()
}

func timeAxis(tmin, tmax float64, width int) string {
	left := fmt.Sprintf("%.0fs", tmin)
	right := fmt.Sprintf("%.0fs", tmax)
	pad := width - len(left) - len(right)
	if pad < 1 {
		pad = 1
	}
	return left + strings.Repeat("-", pad) + right
}

// JobStats summarizes one job's timeline: phase boundaries and attempt
// outcomes, derived purely from the event stream.
type JobStats struct {
	Job          string
	SubmitTime   float64
	FinishTime   float64
	MapStarts    int
	MapFinishes  int
	RedStarts    int
	RedFinishes  int
	OOMs         int
	Kills        int
	Failures     int // injected attempt failures (task_failed)
	NodeDowns    int
	NodeUps      int
	MapReexecs   int
	LastMapEnd   float64
	FirstRedStat float64 // first reduce task start (slowstart point)
}

// MapPhaseSecs returns the time from submission to the last map finish.
func (s JobStats) MapPhaseSecs() float64 { return s.LastMapEnd - s.SubmitTime }

// ReduceTailSecs returns the time after the last map finished.
func (s JobStats) ReduceTailSecs() float64 { return s.FinishTime - s.LastMapEnd }

// Stats computes per-job summaries from the recorded events, keyed by
// job name, in first-appearance order.
func (r *Recorder) Stats() []JobStats {
	byJob := map[string]*JobStats{}
	var order []string
	get := func(job string) *JobStats {
		s, ok := byJob[job]
		if !ok {
			s = &JobStats{Job: job, FirstRedStat: -1}
			byJob[job] = s
			order = append(order, job)
		}
		return s
	}
	for _, e := range r.Events() {
		s := get(e.Job)
		switch e.Kind {
		case JobSubmit:
			s.SubmitTime = e.Time
		case JobFinish:
			s.FinishTime = e.Time
		case TaskStart:
			if e.TaskType == "map" {
				s.MapStarts++
			} else {
				s.RedStarts++
				if s.FirstRedStat < 0 {
					s.FirstRedStat = e.Time
				}
			}
		case TaskFinish:
			if e.TaskType == "map" {
				s.MapFinishes++
				if e.Time > s.LastMapEnd {
					s.LastMapEnd = e.Time
				}
			} else {
				s.RedFinishes++
			}
		case TaskOOM:
			s.OOMs++
		case TaskKilled:
			s.Kills++
		case TaskFailed:
			s.Failures++
		case NodeDown:
			s.NodeDowns++
		case NodeUp:
			s.NodeUps++
		case ReexecMap:
			s.MapReexecs++
		}
	}
	out := make([]JobStats, 0, len(order))
	for _, job := range order {
		out = append(out, *byJob[job])
	}
	return out
}
