//go:build go1.24

package cluster

import (
	"runtime"
	"testing"
	"weak"

	"repro/internal/sim"
)

// TestFinishedFlowDropsCallbacks: a finished flow that something still
// references — a fabric scratch buffer, a finished owner's flow list —
// must not keep alive what its done and onAbort callbacks captured, or
// one retained flow pins its whole dead job.
func TestFinishedFlowDropsCallbacks(t *testing.T) {
	cases := []struct {
		name   string
		finish func(fb *Fabric, f *Flow)
	}{
		{"completed", func(*Fabric, *Flow) {}},
		{"canceled", func(_ *Fabric, f *Flow) { f.Cancel() }},
		{"aborted", func(fb *Fabric, f *Flow) { fb.Abort(f) }},
		// Parked in the free list every fabric of the cluster shares.
		{"recycled", func(fb *Fabric, f *Flow) { fb.ws.eng.Run(); f.Recycle() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			n := New(eng, PaperConfig()).Nodes[0]
			f, captured := startCapturing(&n.disk, &n.diskLink)
			tc.finish(&n.disk, f)
			eng.Run()
			if !f.Done() {
				t.Fatal("flow did not finish")
			}
			runtime.GC()
			if captured.Value() != nil {
				t.Fatal("a finished flow still pins its callbacks' captured state")
			}
			runtime.KeepAlive(f)
		})
	}
}

// startCapturing starts a flow whose done and onAbort callbacks both
// capture a fresh heap object, and returns a weak pointer to it.
//
//go:noinline
func startCapturing(fb *Fabric, l *Link) (*Flow, weak.Pointer[[64]byte]) {
	obj := new([64]byte)
	f := fb.Start([]*Link{l}, 100, 0, func() { obj[0]++ })
	f.SetOnAbort(func() { obj[1]++ })
	return f, weak.Make(obj)
}
