package decimal

import (
	"math"
	"math/big"
	"testing"
)

// mulSink keeps the benchmarked products live.
var mulSink Dec128

// BenchmarkDec128Mul times Mul on the two operand shapes it handles:
// int64 unit counts (every TPC-H operand: price × discount, price ×
// (1 + tax)) and operands wider than int64, which take the 256-bit path.
func BenchmarkDec128Mul(b *testing.B) {
	wide := FromInt64(1 << 62).MulInt64(1 << 6) // 2^68 in value
	shapes := []struct {
		name string
		ops  [][2]Dec128
	}{
		{"int64", [][2]Dec128{
			{MustParse("91749.27"), MustParse("0.06")},
			{MustParse("-3151.80"), MustParse("1.08")},
			{MustParse("43125.00"), MustParse("0.94")},
			{MustParse("1.00"), MustParse("-0.0001")},
		}},
		{"wide", [][2]Dec128{
			{wide, MustParse("0.06")},
			{MustParse("-3151.80"), wide.Neg()},
			{wide, MustParse("1.0001")},
			{wide.Neg(), MustParse("-12.5")},
		}},
	}
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			var acc Dec128
			for i := 0; i < b.N; i++ {
				op := &s.ops[i&3]
				acc = acc.Add(op[0].Mul(op[1]))
			}
			mulSink = acc
		})
	}
}

// maxMag is 2^127 - 1: Mul panics exactly when the magnitude of the
// truncated quotient exceeds it (so -2^127, representable but with no
// positive counterpart, is an overflow for Mul too).
var maxMag = new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 127), big.NewInt(1))

// mulOrPanic returns d.Mul(o), or ok=false when Mul panics.
func mulOrPanic(d, o Dec128) (r Dec128, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return d.Mul(o), true
}

// FuzzDec128Mul checks Mul against math/big on both of its paths. The
// mode selects the operand shape: 0 makes both operands int64 unit
// counts (the fast prefix), 1 and 2 make only one of them int64, and 3
// takes both {Lo, Hi} pairs as given.
func FuzzDec128Mul(f *testing.F) {
	const s = Scale
	u := func(v int64) (uint64, int64) { d := FromUnits(v); return d.Lo, d.Hi }
	seeds := [][2]int64{
		{1 << 62, 2 * s},               // product 2^63·Scale: quotient 2^63
		{1 << 32, 1 << 32},             // product 2^64: first Div64 product
		{1 << 31, 1 << 32},             // product 2^63
		{1<<32 - 1, 1<<32 + 1},         // product 2^64 - 1: last constant divide
		{s << 31, 1 << 33},             // product Scale·2^64: first fall-through
		{s<<31 - 1, 1 << 33},           // product just below Scale·2^64
		{math.MinInt64, math.MinInt64}, // 2^126: largest int64 product
		{math.MinInt64, math.MaxInt64},
		{math.MinInt64, 1},
		{math.MaxInt64, -s},
		{s, -s}, {-s, -s}, {s, s}, {-s, s},
		{1 << 62, -(1 << 62)},
		{-12345, 678}, {0, math.MinInt64}, {-1, 1},
	}
	for _, p := range seeds {
		alo, ahi := u(p[0])
		blo, bhi := u(p[1])
		f.Add(alo, ahi, blo, bhi, uint8(0))
	}
	wide := FromInt64(1 << 62).MulInt64(1 << 6)
	minDec := Dec128{Hi: math.MinInt64}
	maxDec := Dec128{Lo: math.MaxUint64, Hi: math.MaxInt64}
	for _, p := range [][2]Dec128{
		{wide, MustParse("-0.06")},          // int64 in one argument only
		{MustParse("3.5"), wide},            // the other one
		{wide.Neg(), wide.Neg()},            // slow-path overflow
		{maxDec, FromInt64(1)},              // largest quotient that fits
		{minDec, FromInt64(1)},              // -2^127: panics, as before
		{maxDec, FromUnits(s + 1)},          // overflow by a hair
		{minDec, FromUnits(-1)},             // truncates to 2^127 / Scale
		{Dec128{Lo: 1 << 63}, FromInt64(2)}, // 2^63 with Hi = 0: not int64
	} {
		f.Add(p[0].Lo, p[0].Hi, p[1].Lo, p[1].Hi, uint8(3))
	}
	f.Fuzz(func(t *testing.T, alo uint64, ahi int64, blo uint64, bhi int64, mode uint8) {
		a, b := Dec128{Lo: alo, Hi: ahi}, Dec128{Lo: blo, Hi: bhi}
		switch mode % 4 {
		case 0:
			a, b = FromUnits(int64(alo)), FromUnits(int64(blo))
		case 1:
			a = FromUnits(int64(alo))
		case 2:
			b = FromUnits(int64(blo))
		}
		want := new(big.Int).Mul(unitsToBig(a), unitsToBig(b))
		want.Quo(want, big.NewInt(Scale))
		overflow := new(big.Int).Abs(want).Cmp(maxMag) > 0
		got, ok := mulOrPanic(a, b)
		switch {
		case overflow && ok:
			t.Fatalf("%v * %v = %v, want an overflow panic (quotient %v)", a, b, got, want)
		case !overflow && !ok:
			t.Fatalf("%v * %v panicked, want %v", a, b, want)
		case ok && unitsToBig(got).Cmp(want) != 0:
			t.Fatalf("%v * %v = %v, want units %v", a, b, got, want)
		}
	})
}
