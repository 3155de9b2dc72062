package offheap

import (
	"testing"
	"unsafe"
)

func backends(t *testing.T) map[string]*Allocator {
	t.Helper()
	m := map[string]*Allocator{"heap": New(WithHeapBackend())}
	if mmapAvailable {
		m["mmap"] = New()
	}
	return m
}

func TestAllocAlignment(t *testing.T) {
	for name, a := range backends(t) {
		t.Run(name, func(t *testing.T) {
			for _, align := range []int{64, 4096, 1 << 16, 1 << 20} {
				r, err := a.Alloc(align/2+7, align)
				if err != nil {
					t.Fatalf("Alloc(align=%d): %v", align, err)
				}
				if uintptr(r.Base())&uintptr(align-1) != 0 {
					t.Errorf("base %p not aligned to %d", r.Base(), align)
				}
				if r.Size() != align/2+7 {
					t.Errorf("size = %d", r.Size())
				}
				if err := a.Free(r); err != nil {
					t.Fatalf("Free: %v", err)
				}
			}
		})
	}
}

func TestAllocZeroed(t *testing.T) {
	for name, a := range backends(t) {
		t.Run(name, func(t *testing.T) {
			r, err := a.Alloc(8192, 4096)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Free(r)
			b := unsafe.Slice((*byte)(r.Base()), r.Size())
			for i, v := range b {
				if v != 0 {
					t.Fatalf("byte %d = %d, want 0", i, v)
				}
			}
			// Memory must be writable and stable.
			for i := range b {
				b[i] = byte(i)
			}
			for i := range b {
				if b[i] != byte(i) {
					t.Fatalf("byte %d readback failed", i)
				}
			}
		})
	}
}

func TestAllocErrors(t *testing.T) {
	a := New(WithHeapBackend())
	if _, err := a.Alloc(0, 64); err == nil {
		t.Error("Alloc(0) should fail")
	}
	if _, err := a.Alloc(-5, 64); err == nil {
		t.Error("Alloc(-5) should fail")
	}
	if _, err := a.Alloc(64, 0); err == nil {
		t.Error("Alloc(align=0) should fail")
	}
	if _, err := a.Alloc(64, 48); err == nil {
		t.Error("Alloc(align=48) should fail: not a power of two")
	}
}

func TestDoubleFree(t *testing.T) {
	a := New(WithHeapBackend())
	r, err := a.Alloc(128, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Free(r); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(r); err == nil {
		t.Error("double Free should fail")
	}
	if err := a.Free(nil); err == nil {
		t.Error("Free(nil) should fail")
	}
	if r.Valid() {
		t.Error("region should be invalid after Free")
	}
}

func TestStats(t *testing.T) {
	a := New(WithHeapBackend())
	r1, _ := a.Alloc(1000, 64)
	r2, _ := a.Alloc(2000, 64)
	s := a.Stats()
	if got := s.AllocatedBytes.Load() - s.FreedBytes.Load(); got != 3000 {
		t.Errorf("live bytes = %d, want 3000", got)
	}
	if got := s.LiveRegions.Load(); got != 2 {
		t.Errorf("LiveRegions = %d, want 2", got)
	}
	a.Free(r1)
	a.Free(r2)
	if got := s.AllocatedBytes.Load() - s.FreedBytes.Load(); got != 0 {
		t.Errorf("live bytes after free = %d, want 0", got)
	}
	if got := s.LiveRegions.Load(); got != 0 {
		t.Errorf("LiveRegions after free = %d, want 0", got)
	}
}

func TestMaskRecoverBase(t *testing.T) {
	// The block-header recovery trick: any interior pointer masked by the
	// block size must yield the region base.
	for name, a := range backends(t) {
		t.Run(name, func(t *testing.T) {
			const bs = 1 << 16
			r, err := a.Alloc(bs, bs)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Free(r)
			for _, off := range []int{0, 1, 8, bs / 2, bs - 1} {
				p := unsafe.Add(r.Base(), off)
				back := unsafe.Add(p, -int(uintptr(p)&uintptr(bs-1)))
				if back != r.Base() {
					t.Fatalf("mask recovery from offset %d failed", off)
				}
			}
		})
	}
}
