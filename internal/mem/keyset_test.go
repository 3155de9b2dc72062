package mem

import (
	"encoding/binary"
	"math"
	"testing"
)

// encodeKeyRanges packs ranges as little-endian (lo, hi) int64 pairs, the
// byte form FuzzKeyRangePredicate decodes.
func encodeKeyRanges(rs ...KeyRange) []byte {
	b := make([]byte, 0, 16*len(rs))
	for _, r := range rs {
		b = binary.LittleEndian.AppendUint64(b, uint64(r.Lo))
		b = binary.LittleEndian.AppendUint64(b, uint64(r.Hi))
	}
	return b
}

// FuzzKeyRangePredicate checks NewKeyRangePredicate's sort-and-coalesce
// differentially: Overlaps and Contains must agree with a brute-force
// scan of the input intervals (Lo > Hi is an empty interval), and the
// stored ranges must be sorted, disjoint and non-adjacent — including at
// the int64 extremes, where coalescing on hi+1 would wrap.
func FuzzKeyRangePredicate(f *testing.F) {
	const lo, hi = math.MinInt64, math.MaxInt64
	for _, seed := range [][]KeyRange{
		{},
		{{5, 5}},                   // lo == hi
		{{1, 10}, {3, 4}},          // nested
		{{1, 4}, {5, 9}, {11, 11}}, // adjacent, then a gap
		{{7, 3}, {2, 2}},           // an empty interval
		{{lo, lo}, {hi, hi}},       // both extremes, apart
		{{hi, hi}, {hi - 1, hi - 1}, {lo, lo + 1}}, // adjacent at the top
		{{lo, hi}, {0, 0}},                         // the whole domain
		{{hi - 3, hi}, {lo, hi - 4}},               // adjacent, covering all
		{{10, 20}, {10, 15}, {10, 30}, {31, 40}},   // equal starts
	} {
		f.Add(encodeKeyRanges(seed...), int64(0), int64(5))
		f.Add(encodeKeyRanges(seed...), int64(hi), int64(hi))
		f.Add(encodeKeyRanges(seed...), int64(lo), int64(lo))
	}
	f.Fuzz(func(t *testing.T, data []byte, qlo, qhi int64) {
		if len(data) > 16*64 {
			data = data[:16*64]
		}
		in := make([]KeyRange, len(data)/16)
		for i := range in {
			in[i].Lo = int64(binary.LittleEndian.Uint64(data[16*i:]))
			in[i].Hi = int64(binary.LittleEndian.Uint64(data[16*i+8:]))
		}
		want := append([]KeyRange(nil), in...) // the constructor reorders in
		ks := NewKeyRangePredicate(in)

		for i, r := range ks.ranges {
			if r.Lo > r.Hi {
				t.Fatalf("range %d %v is empty", i, r)
			}
			if i > 0 {
				prev := ks.ranges[i-1]
				if prev.Hi == math.MaxInt64 || prev.Hi+1 >= r.Lo {
					t.Fatalf("ranges %d %v and %d %v overlap or touch", i-1, prev, i, r)
				}
			}
		}
		overlaps := func(a, b int64) bool {
			for _, r := range want {
				if r.Lo <= r.Hi && r.Lo <= b && a <= r.Hi {
					return true
				}
			}
			return false
		}
		if ks.Empty() != !overlaps(math.MinInt64, math.MaxInt64) {
			t.Fatalf("Empty() = %v for %v", ks.Empty(), want)
		}
		if qlo > qhi {
			qlo, qhi = qhi, qlo
		}
		if got := ks.Overlaps(qlo, qhi); got != overlaps(qlo, qhi) {
			t.Fatalf("Overlaps(%d, %d) = %v for %v", qlo, qhi, got, want)
		}
		// Probe every endpoint and its neighbours, where coalescing errs.
		probes := []int64{qlo, qhi}
		for _, r := range want {
			for _, k := range []int64{r.Lo, r.Hi} {
				probes = append(probes, k)
				if k > math.MinInt64 {
					probes = append(probes, k-1)
				}
				if k < math.MaxInt64 {
					probes = append(probes, k+1)
				}
			}
		}
		for _, k := range probes {
			if got := ks.Contains(k); got != overlaps(k, k) {
				t.Fatalf("Contains(%d) = %v for %v", k, got, want)
			}
		}
	})
}
