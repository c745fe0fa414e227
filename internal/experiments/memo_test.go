package experiments

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/faults"
	"repro/internal/mapreduce"
	"repro/internal/mrconf"
	"repro/internal/workload"
)

// memoCells returns how many default legs the process-wide memo holds.
func memoCells() int {
	defaultLegs.mu.Lock()
	defer defaultLegs.mu.Unlock()
	return len(defaultLegs.cells)
}

// singleRunRows prints Figs 10–12's rows.
func singleRunRows(e Env) string {
	var b strings.Builder
	for _, rows := range [][]SingleRunRow{e.Fig10(), e.Fig11(), e.Fig12()} {
		for _, r := range rows {
			fmt.Fprintf(&b, "%+v\n", r)
		}
	}
	return b.String()
}

// TestSingleRunRowsIgnoreMemo: Figs 10–12 print the same bytes whether
// they run their own default legs on an empty memo or read the legs
// Figs 4–6 left there, and they add no leg of their own.
func TestSingleRunRowsIgnoreMemo(t *testing.T) {
	e := DefaultEnv()
	defer resetDefaultLegs()

	resetDefaultLegs()
	alone := singleRunRows(e)

	resetDefaultLegs()
	e.Fig4()
	e.Fig5()
	e.Fig6()
	if n := memoCells(); n != 9 {
		t.Fatalf("Figs 4–6 left %d default legs in the memo, want 9", n)
	}
	after := singleRunRows(e)
	if n := memoCells(); n != 9 {
		t.Fatalf("Figs 10–12 grew the memo to %d legs; they should reuse Figs 4–6's 9", n)
	}
	if after != alone {
		t.Fatalf("Figs 10–12 rows differ after Figs 4–6:\n%s\nwant (empty memo)\n%s", after, alone)
	}
}

// TestFaultSpecBypassesMemo: a run with a FaultSpec neither reads the
// memo nor fills it. An empty spec injects nothing, so its default leg
// must equal a plain run's, not the planted one.
func TestFaultSpecBypassesMemo(t *testing.T) {
	defer resetDefaultLegs()
	resetDefaultLegs()
	b := workload.Terasort(2, 0, 0)
	e := Env{Seed: 7}
	defaultLegs.get(legKey{seed: e.Seed, bench: b}, func() defaultLeg { return defaultLeg{Result: mapreduce.Result{Duration: -1}} })

	faulty := e
	faulty.FaultSpec = &faults.Spec{}
	row := faulty.SingleRun(b)
	if row.DefaultDur == -1 {
		t.Fatal("a run with a FaultSpec read the planted memo entry")
	}
	if want := e.RunOne(b, mrconf.Default(), nil).Duration; row.DefaultDur != want {
		t.Fatalf("default leg under an empty FaultSpec took %v, a plain run %v", row.DefaultDur, want)
	}
	if n := memoCells(); n != 1 {
		t.Fatalf("memo holds %d legs after the FaultSpec run, want only the planted one", n)
	}
}

// TestMemoConcurrentMissRunsOnce: requests for one key that all miss
// at once run the leg once, and every caller gets its result. The leg
// holds its cell until every caller is on its way into get.
func TestMemoConcurrentMissRunsOnce(t *testing.T) {
	var m legMemo
	k := legKey{seed: 1, bench: workload.Terasort(2, 0, 0)}
	const callers = 8
	var runs atomic.Int32
	var arrived, done sync.WaitGroup
	arrived.Add(callers)
	run := func() defaultLeg {
		runs.Add(1)
		arrived.Wait()
		return defaultLeg{Result: mapreduce.Result{Duration: 42}}
	}
	got := make([]defaultLeg, callers)
	for i := 0; i < callers; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			arrived.Done()
			got[i] = m.get(k, run)
		}(i)
	}
	done.Wait()
	if n := runs.Load(); n != 1 {
		t.Fatalf("%d concurrent misses ran the leg %d times, want once", callers, n)
	}
	for i, leg := range got {
		if leg.Duration != 42 {
			t.Fatalf("caller %d got %+v, want the one run's leg", i, leg)
		}
	}
}
