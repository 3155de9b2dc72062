package region

import (
	"sync"

	"repro/internal/offheap"
)

// DefaultPoolRetain is the retained-footprint bound for an ArenaPool when
// none is given: idle arenas beyond it are released to the OS instead of
// parked.
const DefaultPoolRetain = 16 << 20

// ArenaPool hands out arenas on lease and takes them back when the query
// finishes. It is the concurrent replacement for the old one-arena-per-
// query-stream design: any number of goroutines can lease simultaneously
// (each leased arena is still single-owner), and the pool bounds the
// total footprint it retains across leases — a returned arena that would
// push the idle set past the bound is released to the OS instead of
// parked.
type ArenaPool struct {
	alloc *offheap.Allocator
	chunk int
	bound int64

	mu        sync.Mutex
	idle      []*Arena
	idleBytes int64

	leases  int64
	reuses  int64
	returns int64
}

// NewArenaPool creates a pool whose arenas use the given allocator and
// chunk size (nil/0 select the Arena defaults) and whose idle set retains
// at most maxRetain bytes of chunk footprint (0 selects
// DefaultPoolRetain, negative retains nothing).
func NewArenaPool(alloc *offheap.Allocator, chunkSize int, maxRetain int64) *ArenaPool {
	if alloc == nil {
		alloc = offheap.New()
	}
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	if maxRetain == 0 {
		maxRetain = DefaultPoolRetain
	}
	return &ArenaPool{alloc: alloc, chunk: chunkSize, bound: maxRetain}
}

// Lease returns an empty arena owned by the caller until Return. The
// arena itself is single-goroutine, but Lease/Return are safe to call
// concurrently — this is what lets concurrent queries on one query object
// each get private region state.
func (p *ArenaPool) Lease() *Arena {
	p.mu.Lock()
	p.leases++
	if n := len(p.idle); n > 0 {
		a := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.idleBytes -= a.Footprint()
		p.reuses++
		p.mu.Unlock()
		return a
	}
	p.mu.Unlock()
	return NewArena(p.alloc, p.chunk)
}

// Return resets a and parks it for the next Lease, releasing it to the OS
// instead whenever parking would push the idle footprint past the pool's
// bound. Returning nil is a no-op, so callers can defer Return
// unconditionally.
func (p *ArenaPool) Return(a *Arena) {
	if a == nil {
		return
	}
	a.Reset()
	fp := a.Footprint()
	p.mu.Lock()
	p.returns++
	if p.idleBytes+fp > p.bound {
		p.mu.Unlock()
		a.Release()
		return
	}
	p.idle = append(p.idle, a)
	p.idleBytes += fp
	p.mu.Unlock()
}

// RetainedBytes reports the chunk footprint currently parked in the idle
// set.
func (p *ArenaPool) RetainedBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.idleBytes
}

// TrimTo releases idle arenas (newest-parked first) until the retained
// footprint is at most target, returning the bytes freed. Leased arenas
// are untouched; the pool stays usable.
func (p *ArenaPool) TrimTo(target int64) (freed int64) {
	if target < 0 {
		target = 0
	}
	p.mu.Lock()
	var drop []*Arena
	for len(p.idle) > 0 && p.idleBytes > target {
		a := p.idle[len(p.idle)-1]
		p.idle = p.idle[:len(p.idle)-1]
		p.idleBytes -= a.Footprint()
		freed += a.Footprint()
		drop = append(drop, a)
	}
	p.mu.Unlock()
	for _, a := range drop {
		a.Release()
	}
	return freed
}

// Stats reports lifetime lease and reuse counts.
func (p *ArenaPool) Stats() (leases, reuses int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.leases, p.reuses
}

// Returns reports the lifetime Return count. Leases == Returns whenever
// no query holds a leased arena — the robustness suites assert this
// balance after cancellation, double-Close and fault-injection cycles.
func (p *ArenaPool) Returns() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.returns
}

// Close releases every idle arena to the OS. Leased arenas are unaffected
// and may still be Returned (the pool stays usable).
func (p *ArenaPool) Close() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.idleBytes = 0
	p.mu.Unlock()
	for _, a := range idle {
		a.Release()
	}
}
