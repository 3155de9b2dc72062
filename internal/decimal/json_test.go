package decimal

import (
	"math"
	"math/big"
	"testing"
)

// refJSON is the independent reference for the wire form: the 128-bit
// value rendered through math/big, four fractional digits, quoted.
func refJSON(d Dec128) string {
	b := new(big.Int).SetUint64(uint64(d.Hi))
	b.Lsh(b, 64).Or(b, new(big.Int).SetUint64(d.Lo))
	if d.Hi < 0 {
		b.Sub(b, new(big.Int).Lsh(big.NewInt(1), 128))
	}
	sign := ""
	if b.Sign() < 0 {
		sign = "-"
		b.Neg(b)
	}
	q, r := new(big.Int).QuoRem(b, big.NewInt(Scale), new(big.Int))
	frac := r.String()
	for len(frac) < ScaleDigits {
		frac = "0" + frac
	}
	return `"` + sign + q.String() + "." + frac + `"`
}

// checkJSON holds one value to the AppendJSON contract: the reference
// bytes, appended after whatever dst already held, with String and
// MarshalJSON on the same path, and UnmarshalJSON taking them back.
func checkJSON(t *testing.T, d Dec128) {
	t.Helper()
	want := refJSON(d)
	if got := string(d.AppendJSON([]byte("x"))); got != "x"+want {
		t.Fatalf("AppendJSON(%#v) = %s, want x%s", d, got, want)
	}
	if got := d.String(); got != want[1:len(want)-1] {
		t.Fatalf("String(%#v) = %s, want %s", d, got, want)
	}
	if b, err := d.MarshalJSON(); err != nil || string(b) != want {
		t.Fatalf("MarshalJSON(%#v) = %s, %v", d, b, err)
	}
	var back Dec128
	if err := back.UnmarshalJSON([]byte(want)); err != nil || back != d {
		t.Fatalf("UnmarshalJSON(%s) = %#v, %v; want %#v", want, back, err, d)
	}
}

var jsonEdges = []Dec128{
	{},
	FromUnits(1), FromUnits(-1), FromUnits(9999), FromUnits(10000), FromUnits(-10000),
	FromUnits(math.MaxInt64), FromUnits(math.MinInt64),
	{Lo: math.MaxUint64},       // 2^64-1 units: past int64, chunk boundary
	{Lo: 1e19 - 1}, {Lo: 1e19}, // the 19-digit chunk edge
	{Lo: 0, Hi: 1}, {Lo: 0, Hi: -1}, // ±2^64
	{Lo: math.MaxUint64, Hi: math.MaxInt64}, // the 128-bit maximum
	{Lo: 0, Hi: math.MinInt64},              // the 128-bit minimum, which has no negation
	{Lo: 1, Hi: math.MinInt64},
}

func TestAppendJSONEdges(t *testing.T) {
	for _, d := range jsonEdges {
		checkJSON(t, d)
	}
	if n := len(Dec128{Lo: 0, Hi: math.MinInt64}.AppendJSON(nil)); n != maxJSONLen {
		t.Errorf("longest wire form is %d bytes, maxJSONLen says %d", n, maxJSONLen)
	}
	if a := testing.AllocsPerRun(100, func() {
		var buf [maxJSONLen]byte
		_ = jsonEdges[len(jsonEdges)-1].AppendJSON(buf[:0])
	}); a != 0 {
		t.Errorf("AppendJSON allocates %v times into a sized buffer", a)
	}
}

func FuzzDec128AppendJSON(f *testing.F) {
	for _, d := range jsonEdges {
		f.Add(d.Lo, d.Hi)
	}
	f.Fuzz(func(t *testing.T, lo uint64, hi int64) {
		checkJSON(t, Dec128{Lo: lo, Hi: hi})
	})
}
