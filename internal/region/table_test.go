package region

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTableBasic(t *testing.T) {
	a := NewArena(nil, 4096)
	defer a.Release()
	tab := NewTable[int64](a, 4)
	if tab.Len() != 0 {
		t.Fatal("new table not empty")
	}
	*tab.At(1) = 10
	*tab.At(2) = 20
	*tab.At(1) += 5
	if got := *tab.Get(1); got != 15 {
		t.Fatalf("Get(1) = %d", got)
	}
	if got := *tab.Get(2); got != 20 {
		t.Fatalf("Get(2) = %d", got)
	}
	if tab.Get(3) != nil {
		t.Fatal("Get(3) should be nil")
	}
	if tab.Len() != 2 {
		t.Fatalf("Len = %d", tab.Len())
	}
}

func TestTableGrowthKeepsEntries(t *testing.T) {
	a := NewArena(nil, 1<<16)
	defer a.Release()
	tab := NewTable[int64](a, 2) // force many grows
	const n = 10_000
	for i := int64(0); i < n; i++ {
		*tab.At(i * 7) = i
	}
	if tab.Len() != n {
		t.Fatalf("Len = %d, want %d", tab.Len(), n)
	}
	for i := int64(0); i < n; i++ {
		v := tab.Get(i * 7)
		if v == nil || *v != i {
			t.Fatalf("entry %d lost across growth", i)
		}
	}
}

func TestTableZeroAndNegativeKeys(t *testing.T) {
	a := NewArena(nil, 4096)
	defer a.Release()
	tab := NewTable[int32](a, 4)
	*tab.At(0) = 1
	*tab.At(-1) = 2
	*tab.At(-1 << 62) = 3
	if *tab.Get(0) != 1 || *tab.Get(-1) != 2 || *tab.Get(-1 << 62) != 3 {
		t.Fatal("zero/negative keys mishandled")
	}
}

func TestTableRange(t *testing.T) {
	a := NewArena(nil, 4096)
	defer a.Release()
	tab := NewTable[int64](a, 8)
	want := map[int64]int64{}
	for i := int64(0); i < 100; i++ {
		*tab.At(i) = i * i
		want[i] = i * i
	}
	got := map[int64]int64{}
	tab.Range(func(k int64, v *int64) bool {
		got[k] = *v
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range visited %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("Range[%d] = %d, want %d", k, got[k], v)
		}
	}
	// Early stop.
	n := 0
	tab.Range(func(int64, *int64) bool { n++; return false })
	if n != 1 {
		t.Fatalf("Range ignored early stop: %d visits", n)
	}
}

// TestTableMatchesMap is the property test: a random operation sequence
// applied to both a region table and a Go map must agree.
func TestTableMatchesMap(t *testing.T) {
	f := func(keys []int64, adds []int16) bool {
		a := NewArena(nil, 1<<14)
		defer a.Release()
		tab := NewTable[int64](a, 4)
		ref := map[int64]int64{}
		for i, k := range keys {
			var d int64 = 1
			if i < len(adds) {
				d = int64(adds[i])
			}
			*tab.At(k) += d
			ref[k] += d
		}
		if tab.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			got := tab.Get(k)
			if got == nil || *got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPresenceSet covers the semi-join key-set idiom: a
// PartitionedTable[struct{}] with At as insert and Get as membership
// (the shape serial Q4 and Q4ParCtx's per-worker merge both use).
func TestPresenceSet(t *testing.T) {
	a := NewArena(nil, 4096)
	defer a.Release()
	s := NewPartitionedTable[struct{}](a, 1, 8)
	for i := int64(0); i < 50; i++ {
		s.At(i * 3)
	}
	s.At(6) // duplicate
	if s.Len() != 50 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Get(6) == nil || s.Get(147) == nil || s.Get(7) != nil {
		t.Fatal("membership wrong")
	}
}

func BenchmarkTableAt(b *testing.B) {
	a := NewArena(nil, 1<<20)
	defer a.Release()
	tab := NewTable[int64](a, 1<<16)
	r := rand.New(rand.NewSource(1))
	keys := make([]int64, 1<<16)
	for i := range keys {
		keys[i] = r.Int63n(1 << 14)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		*tab.At(keys[i&(1<<16-1)]) += 1
	}
}

func BenchmarkGoMapAt(b *testing.B) {
	m := map[int64]int64{}
	r := rand.New(rand.NewSource(1))
	keys := make([]int64, 1<<16)
	for i := range keys {
		keys[i] = r.Int63n(1 << 14)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m[keys[i&(1<<16-1)]]++
	}
}
