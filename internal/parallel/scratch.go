package parallel

import "sync"

// ScratchPool is a concurrency-safe pool of reusable []T buffers for
// temporaries that live within one call, such as the wire codec's
// significance planes. It exists so hot paths that need a sized buffer per
// call stop allocating (and, for large buffers, stop paying the make()
// zeroing pass) once the pool is warm. (Tensors a training step creates come
// from tensor.Arena instead, which takes them back at the end of the step.)
//
// Get hands out a *[]T so that Put can return the very same header to the
// pool without boxing a fresh one — the steady state is zero allocations.
// Buffer contents are arbitrary on Get: every element must be written before
// it is read, which its user guarantees by construction (plane shuffles
// assign before or-ing).
// Determinism is unaffected: a pooled buffer never carries observable state
// between uses.
type ScratchPool[T any] struct {
	pool sync.Pool
}

// Get returns a pooled buffer resliced to length n (capacity may be larger).
// The contents are unspecified.
func (p *ScratchPool[T]) Get(n int) *[]T {
	b, _ := p.pool.Get().(*[]T)
	if b == nil {
		s := make([]T, n)
		return &s
	}
	if cap(*b) < n {
		*b = make([]T, n)
	}
	*b = (*b)[:n]
	return b
}

// Put returns a buffer obtained from Get to the pool. The caller must not
// use the slice afterwards.
func (p *ScratchPool[T]) Put(b *[]T) {
	p.pool.Put(b)
}
