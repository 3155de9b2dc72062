package region

import (
	"sync"
	"testing"
)

func TestArenaPoolLeaseReturnReuses(t *testing.T) {
	p := NewArenaPool(nil, 1024, 1<<20)
	defer p.Close()
	a := p.Lease()
	a.Alloc(512, 8)
	p.Return(a)
	if got := p.RetainedBytes(); got != 1024 {
		t.Fatalf("retained after return = %d, want 1024", got)
	}
	b := p.Lease()
	if b != a {
		t.Fatal("second lease did not reuse the returned arena")
	}
	if b.Used() != 0 {
		t.Fatalf("reused arena not reset: used=%d", b.Used())
	}
	leases, reuses := p.Stats()
	if leases != 2 || reuses != 1 {
		t.Fatalf("stats = (%d leases, %d reuses), want (2, 1)", leases, reuses)
	}
	p.Return(b)
}

// TestArenaPoolBoundsRetainedFootprint: returned arenas past the bound
// are released, not parked, so the idle set's footprint stays bounded no
// matter how large the queries were.
func TestArenaPoolBoundsRetainedFootprint(t *testing.T) {
	const chunk = 1024
	p := NewArenaPool(nil, chunk, 3*chunk)
	defer p.Close()
	arenas := make([]*Arena, 8)
	for i := range arenas {
		arenas[i] = p.Lease()
		arenas[i].Alloc(512, 8) // one chunk each
	}
	for _, a := range arenas {
		p.Return(a)
	}
	if got := p.RetainedBytes(); got > 3*chunk {
		t.Fatalf("retained %d bytes, bound is %d", got, 3*chunk)
	}
	if got := p.RetainedBytes(); got != 3*chunk {
		t.Fatalf("retained %d bytes, want the full bound %d", got, 3*chunk)
	}
}

// TestArenaPoolTrimToReleasesIdle: TrimTo sheds parked arenas down to
// the target and reports the bytes freed; leased arenas are untouched
// and the pool stays usable.
func TestArenaPoolTrimToReleasesIdle(t *testing.T) {
	const chunk = 1024
	p := NewArenaPool(nil, chunk, 8*chunk)
	defer p.Close()
	arenas := make([]*Arena, 4)
	for i := range arenas {
		arenas[i] = p.Lease()
		arenas[i].Alloc(512, 8)
	}
	leased := p.Lease()
	leased.Alloc(512, 8)
	for _, a := range arenas {
		p.Return(a)
	}
	if got := p.RetainedBytes(); got != 4*chunk {
		t.Fatalf("retained = %d, want %d", got, 4*chunk)
	}
	if freed := p.TrimTo(chunk); freed != 3*chunk {
		t.Fatalf("TrimTo(%d) freed %d, want %d", chunk, freed, 3*chunk)
	}
	if got := p.RetainedBytes(); got != chunk {
		t.Fatalf("retained after trim = %d, want %d", got, chunk)
	}
	if freed := p.TrimTo(chunk); freed != 0 {
		t.Fatalf("idempotent trim freed %d, want 0", freed)
	}
	// Negative targets clamp to zero.
	if freed := p.TrimTo(-1); freed != chunk {
		t.Fatalf("TrimTo(-1) freed %d, want %d", freed, chunk)
	}
	if got := p.RetainedBytes(); got != 0 {
		t.Fatalf("retained after full trim = %d, want 0", got)
	}
	// The leased arena was never the pool's to release.
	p.Return(leased)
	if got := p.RetainedBytes(); got != chunk {
		t.Fatalf("retained after returning leased arena = %d, want %d", got, chunk)
	}
}

// TestArenaPoolMaxRetainGatesReturns: the bound given at construction
// gates returns — a pool that retains nothing releases every returned
// arena, and a bounded pool parks up to its bound.
func TestArenaPoolMaxRetainGatesReturns(t *testing.T) {
	const chunk = 1024
	none := NewArenaPool(nil, chunk, -1)
	defer none.Close()
	a := none.Lease()
	a.Alloc(512, 8)
	none.Return(a)
	if got := none.RetainedBytes(); got != 0 {
		t.Fatalf("negative bound parked %d bytes", got)
	}
	p := NewArenaPool(nil, chunk, 4*chunk)
	defer p.Close()
	b := p.Lease()
	b.Alloc(512, 8)
	p.Return(b)
	if got := p.RetainedBytes(); got != chunk {
		t.Fatalf("bounded pool retained %d, want %d", got, chunk)
	}
}

func TestArenaPoolReturnNil(t *testing.T) {
	p := NewArenaPool(nil, 0, 0)
	defer p.Close()
	p.Return(nil) // must not panic: callers defer Return unconditionally
}

func TestArenaPoolClose(t *testing.T) {
	p := NewArenaPool(nil, 1024, 1<<20)
	a := p.Lease()
	a.Alloc(100, 8)
	p.Return(a)
	p.Close()
	if got := p.RetainedBytes(); got != 0 {
		t.Fatalf("retained after Close = %d, want 0", got)
	}
	// Pool stays usable after Close.
	b := p.Lease()
	b.Alloc(100, 8)
	p.Return(b)
	p.Close()
}

// TestArenaPoolParallelLease: concurrent lease/return must hand every
// goroutine a private arena — the race detector plus overlap checks catch
// any sharing.
func TestArenaPoolParallelLease(t *testing.T) {
	p := NewArenaPool(nil, 4096, 1<<20)
	defer p.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				a := p.Lease()
				s := NewSlice[int64](a, 64)
				for j := range s {
					s[j] = int64(g)
				}
				for j := range s {
					if s[j] != int64(g) {
						t.Errorf("arena shared across goroutines")
						break
					}
				}
				p.Return(a)
			}
		}(g)
	}
	wg.Wait()
}
