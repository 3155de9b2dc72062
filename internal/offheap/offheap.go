// Package offheap provides aligned memory regions that live outside the
// reach of the Go garbage collector.
//
// The memory manager (internal/mem) carves these regions into the
// single-type memory blocks of the paper (§3.1). Two backends exist:
//
//   - mmap (Linux): anonymous private mappings. The GC never sees them;
//     untouched pages cost no physical memory, so over-allocating to
//     obtain alignment is free in RSS terms.
//   - heap slabs (portable fallback): single pointer-free []byte
//     allocations. The GC treats each slab as one opaque object: it is
//     scanned in O(1) (no interior pointers) and never moved, so interior
//     addresses stay stable. Used on non-Linux platforms and in tests.
//
// Regions are aligned to a caller-chosen power of two, which enables the
// paper's trick of recovering a block's header from any object pointer by
// masking the low address bits.
package offheap

import (
	"fmt"
	"sync/atomic"
	"unsafe"
)

// Region is one aligned off-heap allocation.
type Region struct {
	base unsafe.Pointer // aligned base address handed to the user
	size int            // usable size in bytes
	raw  []byte         // backing mapping or slab (kept alive; nil after Free)
	mmap bool           // true when raw came from mmap
}

// Base returns the aligned base address of the region.
func (r *Region) Base() unsafe.Pointer { return r.base }

// Size returns the usable size of the region in bytes.
func (r *Region) Size() int { return r.size }

// Valid reports whether the region is still allocated.
func (r *Region) Valid() bool { return r.raw != nil }

// Stats counts allocator activity. All fields are updated atomically.
type Stats struct {
	// AllocatedBytes is the total usable bytes handed out over time.
	AllocatedBytes atomic.Int64
	// FreedBytes is the total usable bytes returned over time.
	FreedBytes atomic.Int64
	// LiveRegions is the number of regions currently allocated.
	LiveRegions atomic.Int64
}

// Allocator hands out aligned off-heap regions.
type Allocator struct {
	useMmap bool
	stats   Stats
}

// Option configures an Allocator.
type Option func(*Allocator)

// WithHeapBackend forces the portable heap-slab backend even where mmap is
// available. Useful in tests and for measuring backend overhead.
func WithHeapBackend() Option {
	return func(a *Allocator) { a.useMmap = false }
}

// New returns an allocator using the best backend for the platform.
func New(opts ...Option) *Allocator {
	a := &Allocator{useMmap: mmapAvailable}
	for _, o := range opts {
		o(a)
	}
	return a
}

// Stats returns the allocator's counters.
func (a *Allocator) Stats() *Stats { return &a.stats }

// Alloc returns a zeroed region of the given size whose base address is
// aligned to align (a power of two). The region's memory is excluded from
// garbage collection in the sense that the collector never scans its
// interior and never relocates it.
func (a *Allocator) Alloc(size, align int) (*Region, error) {
	if size <= 0 {
		return nil, fmt.Errorf("offheap: non-positive size %d", size)
	}
	if align <= 0 || align&(align-1) != 0 {
		return nil, fmt.Errorf("offheap: alignment %d is not a power of two", align)
	}
	var (
		raw []byte
		err error
		mm  bool
	)
	if a.useMmap {
		raw, err = mmapAnon(size + align)
		mm = true
		if err != nil {
			return nil, fmt.Errorf("offheap: mmap: %w", err)
		}
	} else {
		raw = make([]byte, size+align)
	}
	base := unsafe.Pointer(&raw[0])
	if off := int(uintptr(base) & uintptr(align-1)); off != 0 {
		base = unsafe.Add(base, align-off)
	}
	if uintptr(base)+uintptr(size) >= 1<<48 {
		// StrRef and other packed representations assume 48-bit
		// user-space addresses; modern kernels comply unless asked
		// for high mappings, which we never do.
		freeRaw(raw, mm)
		return nil, fmt.Errorf("offheap: address space above 2^48 unsupported")
	}
	a.stats.AllocatedBytes.Add(int64(size))
	a.stats.LiveRegions.Add(1)
	return &Region{base: base, size: size, raw: raw, mmap: mm}, nil
}

// Free releases the region. Accessing the region after Free is undefined;
// callers are expected to delay Free until epoch-based reclamation proves
// no concurrent reader can still hold addresses into it.
func (a *Allocator) Free(r *Region) error {
	if r == nil || r.raw == nil {
		return fmt.Errorf("offheap: double free or nil region")
	}
	raw, mm := r.raw, r.mmap
	r.raw = nil
	r.base = nil
	a.stats.FreedBytes.Add(int64(r.size))
	a.stats.LiveRegions.Add(-1)
	return freeRaw(raw, mm)
}

func freeRaw(raw []byte, mm bool) error {
	if mm {
		return munmap(raw)
	}
	// Heap slab: dropping the reference is enough; the GC reclaims it.
	return nil
}
