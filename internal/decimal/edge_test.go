package decimal

import (
	"math/big"
	"testing"
	"testing/quick"
)

// Edge cases beyond the main property suite: conversions at
// representation boundaries, panic paths, and a Div-vs-math/big property.

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse on garbage should panic")
		}
	}()
	MustParse("12.34.56")
}

func TestUnitsBoundaries(t *testing.T) {
	cases := []struct {
		d  Dec128
		v  int64
		ok bool
	}{
		{FromUnits(0), 0, true},
		{FromUnits(1), 1, true},
		{FromUnits(-1), -1, true},
		{FromUnits(1<<62 - 1), 1<<62 - 1, true},
		{MustParse("99999999999999999999.0000"), 0, false}, // > int64 units
	}
	for _, c := range cases {
		v, ok := c.d.units()
		if ok != c.ok || (ok && v != c.v) {
			t.Errorf("units(%v) = (%d,%v), want (%d,%v)", c.d, v, ok, c.v, c.ok)
		}
	}
	// Negative overflow side.
	neg := MustParse("-99999999999999999999.0000")
	if _, ok := neg.units(); ok {
		t.Error("huge negative reported as fitting int64 units")
	}
}

func TestMulDivInt64NegativePaths(t *testing.T) {
	d := MustParse("12.5000")
	if got := d.MulInt64(-4); got != MustParse("-50") {
		t.Fatalf("MulInt64(-4) = %v", got)
	}
	if got := d.Neg().MulInt64(-4); got != MustParse("50") {
		t.Fatalf("(-d).MulInt64(-4) = %v", got)
	}
	if got, want := MustParse("-50").DivInt64(-4), MustParse("12.5"); got != want {
		t.Fatalf("DivInt64 = %v, want %v", got, want)
	}
}

// TestDivMatchesBig cross-checks Div against math/big over random values,
// including negative operands and truncation toward zero.
func TestDivMatchesBig(t *testing.T) {
	f := func(aUnits, bUnits int64) bool {
		if bUnits == 0 {
			return true
		}
		a, b := FromUnits(aUnits), FromUnits(bUnits)
		got := a.Div(b)
		// want = trunc(aUnits * Scale / bUnits) in units.
		num := new(big.Int).Mul(big.NewInt(aUnits), big.NewInt(Scale))
		num.Quo(num, big.NewInt(bUnits))
		want, err := fromBig(num)
		if err != nil {
			return true
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestInt64AndFloat64Reporting(t *testing.T) {
	d := MustParse("-1234.5678")
	f := d.Float64()
	if f > -1234.5 || f < -1234.6 {
		t.Fatalf("Float64 = %v", f)
	}
	huge := MustParse("99999999999999999999.5000")
	if huge.Float64() < 9e19 {
		t.Fatalf("huge Float64 = %v", huge.Float64())
	}
	if huge.String() != "99999999999999999999.5000" {
		t.Fatalf("huge String = %v", huge.String())
	}
}
