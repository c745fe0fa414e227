package mapreduce

import (
	"testing"

	"repro/internal/mrconf"
)

// TestPooledAttemptReuseZeroAlloc pins the steady-state cost of the
// attempt pool: once warm, a get/recycle round trip reuses the Task
// object and its tracking slices without touching the heap.
func TestPooledAttemptReuseZeroAlloc(t *testing.T) {
	p := NewPool()
	// Warm the free list so the measured runs only pop and push.
	tk := p.getTask()
	p.recycleTask(tk)
	if avg := testing.AllocsPerRun(100, func() {
		tk := p.getTask()
		p.recycleTask(tk)
	}); avg != 0 {
		t.Fatalf("pooled attempt round trip allocates %v per run; want 0", avg)
	}
}

// TestTaskConfigBaseRepairedZeroAlloc pins the per-attempt config cost
// on the serving path: when the controller hands back the job's base
// config untouched, taskConfig returns the Repair computed once at
// submission instead of repairing again, and allocates nothing. The
// base here needs repair (io.sort.mb above the map heap), so a
// per-task Repair would show up as a fresh Config.
func TestTaskConfigBaseRepairedZeroAlloc(t *testing.T) {
	base := mrconf.Default().With(mrconf.IOSortMB, 1200)
	repaired := mrconf.Repair(base)
	if repaired.Same(base) {
		t.Fatal("test base config needs no repair; pick one that does")
	}
	j := &Job{spec: Spec{BaseConfig: base}, baseRepaired: repaired, ctrl: PassthroughController{}}
	tk := &Task{Job: j}
	if got := j.taskConfig(tk); !got.Same(j.baseRepaired) {
		t.Fatal("taskConfig on the untouched base did not return the submission-time repair")
	}
	if avg := testing.AllocsPerRun(100, func() {
		tk.Config = j.taskConfig(tk)
	}); avg != 0 {
		t.Fatalf("taskConfig on the untouched base allocates %v per run; want 0", avg)
	}
}
