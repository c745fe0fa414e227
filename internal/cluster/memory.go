package cluster

import "fmt"

// MemPool is a counting resource (megabytes of container memory on a
// node). Allocation either succeeds immediately or fails; queueing is
// the scheduler's job, not the pool's.
type MemPool struct {
	Capacity float64 // MB
	used     float64
	ws       *workspace // names the pool for panics and errors
}

// init validates and sets the capacity of a pool whose workspace is
// set, so that a panic can name the pool.
func (p *MemPool) init(capacity float64) {
	if capacity <= 0 {
		panic(fmt.Sprintf("cluster: mem pool %q must have positive capacity", p.Name()))
	}
	p.Capacity = capacity
}

// Name returns the pool's name: the one given to NewMemPool, or, in a
// cluster, its node's name and "/mem".
func (p *MemPool) Name() string { return p.ws.name(p) }

// Free returns the unallocated MB.
func (p *MemPool) Free() float64 { return p.Capacity - p.used }

// Used returns the allocated MB.
func (p *MemPool) Used() float64 { return p.used }

// CanAllocate reports whether mb MB fit right now.
func (p *MemPool) CanAllocate(mb float64) bool { return mb <= p.Free()+1e-9 }

// Allocate reserves mb MB, or returns an error if they do not fit.
func (p *MemPool) Allocate(mb float64) error {
	if mb < 0 {
		return fmt.Errorf("cluster: negative allocation %v MB on %s", mb, p.Name())
	}
	if !p.CanAllocate(mb) {
		return fmt.Errorf("cluster: %s out of memory: want %.0f MB, free %.0f MB", p.Name(), mb, p.Free())
	}
	p.used += mb
	return nil
}

// Release returns mb MB to the pool. Releasing more than is allocated
// panics, since it indicates double-free in the model.
func (p *MemPool) Release(mb float64) {
	if mb > p.used+1e-6 {
		panic(fmt.Sprintf("cluster: %s release of %v MB exceeds used %v MB", p.Name(), mb, p.used))
	}
	p.used -= mb
	if p.used < 0 {
		p.used = 0
	}
}
