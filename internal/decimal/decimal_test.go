package decimal

import (
	"math/big"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestSizeIs16Bytes(t *testing.T) {
	if s := unsafe.Sizeof(Dec128{}); s != 16 {
		t.Fatalf("Dec128 size = %d, want 16", s)
	}
}

func TestBasicConstruction(t *testing.T) {
	if got := FromInt64(3).String(); got != "3.0000" {
		t.Errorf("FromInt64(3) = %s", got)
	}
	if got := FromInt64(-3).String(); got != "-3.0000" {
		t.Errorf("FromInt64(-3) = %s", got)
	}
	if got := FromUnits(12345).String(); got != "1.2345" {
		t.Errorf("FromUnits(12345) = %s", got)
	}
	if got := FromCents(150).String(); got != "1.5000" {
		t.Errorf("FromCents(150) = %s", got)
	}
	if got := FromCents(-995).String(); got != "-9.9500" {
		t.Errorf("FromCents(-995) = %s", got)
	}
	if !Zero.IsZero() || Zero.Sign() != 0 {
		t.Error("Zero must be zero")
	}
}

func TestParse(t *testing.T) {
	cases := map[string]string{
		"0":        "0.0000",
		"1.5":      "1.5000",
		"-1.5":     "-1.5000",
		"+2.25":    "2.2500",
		"0.0001":   "0.0001",
		"-0.0001":  "-0.0001",
		"12345.67": "12345.6700",
		".5":       "0.5000",
		"7.":       "7.0000",
	}
	for in, want := range cases {
		d, err := Parse(in)
		if err != nil {
			t.Errorf("Parse(%q): %v", in, err)
			continue
		}
		if d.String() != want {
			t.Errorf("Parse(%q) = %s, want %s", in, d, want)
		}
	}
	for _, bad := range []string{"", "-", "1.23456", "abc", "1..2"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestArithmeticBasics(t *testing.T) {
	a := MustParse("10.50")
	b := MustParse("2.25")
	if got := a.Add(b).String(); got != "12.7500" {
		t.Errorf("Add = %s", got)
	}
	if got := a.Sub(b).String(); got != "8.2500" {
		t.Errorf("Sub = %s", got)
	}
	if got := a.Mul(b).String(); got != "23.6250" {
		t.Errorf("Mul = %s", got)
	}
	if got := a.Div(b).String(); got != "4.6666" {
		t.Errorf("Div = %s (truncating)", got)
	}
	if got := a.DivInt64(4).String(); got != "2.6250" {
		t.Errorf("DivInt64 = %s", got)
	}
	if got := a.MulInt64(-3).String(); got != "-31.5000" {
		t.Errorf("MulInt64 = %s", got)
	}
	if got := a.Neg().Add(a); !got.IsZero() {
		t.Errorf("a + (-a) = %s", got)
	}
}

func TestTPCHExpressions(t *testing.T) {
	// disc_price = extendedprice * (1 - discount)
	// charge     = disc_price * (1 + tax)
	price := MustParse("901.00")
	disc := MustParse("0.05")
	tax := MustParse("0.02")
	one := FromInt64(1)
	discPrice := price.Mul(one.Sub(disc))
	if got := discPrice.String(); got != "855.9500" {
		t.Errorf("disc_price = %s", got)
	}
	charge := discPrice.Mul(one.Add(tax))
	if got := charge.String(); got != "873.0690" {
		t.Errorf("charge = %s", got)
	}
	rev := price.Mul(disc)
	if got := rev.String(); got != "45.0500" {
		t.Errorf("revenue = %s", got)
	}
}

func TestCmpAndOrdering(t *testing.T) {
	vals := []Dec128{
		MustParse("-100.5"), MustParse("-0.0001"), Zero,
		MustParse("0.0001"), MustParse("1"), MustParse("99999999.9999"),
	}
	for i := range vals {
		for j := range vals {
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got := vals[i].Cmp(vals[j]); got != want {
				t.Errorf("Cmp(%s,%s) = %d, want %d", vals[i], vals[j], got, want)
			}
			if got := vals[i].Less(vals[j]); got != (want < 0) {
				t.Errorf("Less(%s,%s) = %v", vals[i], vals[j], got)
			}
		}
	}
}

func TestInt64AndUnits(t *testing.T) {
	d := MustParse("-17.9999")
	u, ok := d.units()
	if !ok || u != -179999 {
		t.Errorf("units = (%d,%v)", u, ok)
	}
	big := FromInt64(1 << 62).MulInt64(1 << 10)
	if _, ok := big.units(); ok {
		t.Error("huge value should not fit int64 units")
	}
}

func TestInPlaceOps(t *testing.T) {
	acc := Zero
	v := MustParse("2.5")
	AddAssign(&acc, &v)
	AddAssign(&acc, &v)
	if acc.String() != "5.0000" {
		t.Errorf("AddAssign acc = %s", acc)
	}
	a, b := MustParse("3.5"), MustParse("2")
	MulAdd(&acc, &a, &b)
	if acc.String() != "12.0000" {
		t.Errorf("MulAdd acc = %s", acc)
	}
}

// ref computes the same operation with math/big for cross-checking.
func refOp(op string, a, b int64) *big.Int {
	x, y := big.NewInt(a), big.NewInt(b)
	r := new(big.Int)
	switch op {
	case "add":
		r.Add(x, y)
	case "sub":
		r.Sub(x, y)
	case "mul":
		r.Mul(x, y)
		r.Quo(r, big.NewInt(Scale))
	case "div":
		if b == 0 {
			return nil
		}
		r.Mul(x, big.NewInt(Scale))
		r.Quo(r, y)
	}
	return r
}

func unitsToBig(d Dec128) *big.Int {
	b := new(big.Int)
	neg := d.Sign() < 0
	m := d.Abs()
	b.SetUint64(uint64(m.Hi))
	b.Lsh(b, 64)
	b.Or(b, new(big.Int).SetUint64(m.Lo))
	if neg {
		b.Neg(b)
	}
	return b
}

func TestQuickAgainstBig(t *testing.T) {
	for _, op := range []string{"add", "sub", "mul", "div"} {
		op := op
		f := func(a, b int64) bool {
			// Stay within fixed ranges that cannot overflow Mul:
			// |a|,|b| < 2^40 units (~1e8 in value).
			a %= 1 << 40
			b %= 1 << 40
			if op == "div" && b == 0 {
				return true
			}
			da, db := FromUnits(a), FromUnits(b)
			var got Dec128
			switch op {
			case "add":
				got = da.Add(db)
			case "sub":
				got = da.Sub(db)
			case "mul":
				got = da.Mul(db)
			case "div":
				got = da.Div(db)
			}
			want := refOp(op, a, b)
			return unitsToBig(got).Cmp(want) == 0
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Errorf("%s: %v", op, err)
		}
	}
}

func TestQuickStringParseRoundTrip(t *testing.T) {
	f := func(units int64) bool {
		d := FromUnits(units % (1 << 50))
		back, err := Parse(d.String())
		return err == nil && back.Cmp(d) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDivBigDivisorFallback(t *testing.T) {
	// Divisor magnitude above 64 bits of units exercises the math/big path.
	huge := FromInt64(1 << 62).MulInt64(1 << 4) // 2^66 value => 2^66*1e4 units
	small := FromInt64(1 << 61).MulInt64(1 << 4)
	q := huge.Div(small)
	if q.String() != "2.0000" {
		t.Errorf("big-divisor Div = %s, want 2.0000", q)
	}
}

func TestDivByZeroPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"Div":      func() { FromInt64(1).Div(Zero) },
		"DivInt64": func() { FromInt64(1).DivInt64(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s by zero should panic", name)
				}
			}()
			f()
		}()
	}
}

func TestFloat64Approx(t *testing.T) {
	d := MustParse("123.4567")
	if f := d.Float64(); f < 123.4566 || f > 123.4568 {
		t.Errorf("Float64 = %v", f)
	}
	if f := d.Neg().Float64(); f > -123.4566 || f < -123.4568 {
		t.Errorf("neg Float64 = %v", f)
	}
}

func TestLargeValueString(t *testing.T) {
	// A value whose integer part exceeds uint64.
	d := FromInt64(1 << 62)
	d = d.MulInt64(1 << 10) // 2^72
	want := "4722366482869645213696.0000"
	if got := d.String(); got != want {
		t.Errorf("String = %s, want %s", got, want)
	}
}
