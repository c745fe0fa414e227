// crossshard.go deliberately violates cross-shard-event: closures
// scheduled on one shard reach into other shards' queues directly
// instead of hopping through the owning shard's Send.
package sim

// Racks holds two shard handles plus the engine, the shape of a model
// component that straddles shard boundaries.
type Racks struct {
	eng *Engine
	a   *Shard
	b   *Shard
}

// BadDirectHop schedules on shard b from a closure running on shard a.
func (r *Racks) BadDirectHop() {
	r.a.After(1, func() {
		r.b.At(5, func() {}) // want cross-shard-event
	})
}

// BadEngineFallback slides back to the affinity-blind engine API from
// inside a shard callback.
func (r *Racks) BadEngineFallback() {
	r.a.After(1, func() {
		r.eng.After(2, func() {}) // want cross-shard-event
	})
}

// BadForeignSend calls Send on someone else's shard; only the owning
// shard may issue the hop.
func (r *Racks) BadForeignSend() {
	r.a.After(1, func() {
		r.b.Send(r.a, 2, func() {}) // want cross-shard-event
	})
}

// BadForeignCancel cancels through the wrong shard handle.
func (r *Racks) BadForeignCancel(ev any) {
	r.a.Tick(func() {
		r.b.Cancel(ev) // want cross-shard-event
	})
}

// GoodSameShard keeps every scheduling call on the closure's own shard.
func (r *Racks) GoodSameShard() {
	r.a.After(1, func() {
		r.a.At(5, func() {})
		r.a.Cancel(nil)
	})
}

// GoodSend hops shards through the sanctioned API: the receiver is the
// owning shard, the destination is an argument.
func (r *Racks) GoodSend() {
	r.a.After(1, func() {
		r.a.Send(r.b, 2, func() {})
	})
}

// GoodNested re-anchors affinity at each nesting level: the inner
// closure belongs to the inner scheduling call's receiver.
func (r *Racks) GoodNested() {
	r.a.After(1, func() {
		r.a.Send(r.b, 2, func() {
			r.b.After(3, func() {})
		})
	})
}
