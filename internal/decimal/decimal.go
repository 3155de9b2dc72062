// Package decimal implements a 128-bit fixed-point decimal type standing
// in for C#'s 16-byte decimal, which the paper's TPC-H adaptation uses for
// all monetary columns.
//
// Values are 128-bit two's-complement integers counting 1e-4 units
// (four fractional decimal digits): enough for TPC-H's two-digit money
// columns and the products/averages Q1 computes, with ~1.7e34 of headroom.
//
// Mul, the multiply every query kernel calls, has a machine-width path
// for int64 unit counts, which every TPC-H value is, and a 256-bit path
// for all other operands; the two truncate and overflow identically. The
// managed baselines of Fig. 11 use this package too, so the fast path
// speeds Q1 up on every engine alike and gives SMC no edge.
//
// The type is exactly 16 bytes with no indirection, so it can live inside
// off-heap memory slots. The "unsafe" compiled-query variants operate on
// *Dec128 pointing straight into block memory (paper §7: passing decimals
// by pointer instead of by value is what makes Q1 fast); the safe variants
// use the by-value API.
package decimal

import (
	"fmt"
	"math/big"
	"math/bits"
	"strings"
)

// Scale is the denominator of the fixed-point representation.
const Scale = 10000

// ScaleDigits is the number of fractional decimal digits.
const ScaleDigits = 4

// Dec128 is a 128-bit fixed-point decimal: value = (Hi<<64 | Lo) / Scale
// interpreted as a two's-complement integer.
type Dec128 struct {
	Lo uint64
	Hi int64
}

// Zero is the zero value.
var Zero Dec128

// FromInt64 converts an integer to a decimal.
func FromInt64(v int64) Dec128 {
	hi, lo := bits.Mul64(abs64(v), Scale)
	d := Dec128{Lo: lo, Hi: int64(hi)}
	if v < 0 {
		d = d.Neg()
	}
	return d
}

// FromUnits builds a decimal directly from 1e-4 units. FromUnits(12345)
// is 1.2345.
func FromUnits(units int64) Dec128 {
	d := Dec128{Lo: uint64(units)}
	if units < 0 {
		d.Hi = -1
	}
	return d
}

// FromCents builds a decimal from 1e-2 units (the natural unit of TPC-H
// money columns). FromCents(150) is 1.50.
func FromCents(cents int64) Dec128 {
	return FromUnits(cents * 100)
}

func abs64(v int64) uint64 {
	if v < 0 {
		return uint64(-v)
	}
	return uint64(v)
}

// IsZero reports whether d is zero.
func (d Dec128) IsZero() bool { return d.Lo == 0 && d.Hi == 0 }

// Sign returns -1, 0 or +1.
func (d Dec128) Sign() int {
	if d.Hi < 0 {
		return -1
	}
	if d.Hi == 0 && d.Lo == 0 {
		return 0
	}
	return 1
}

// Neg returns -d.
func (d Dec128) Neg() Dec128 {
	lo, borrow := bits.Sub64(0, d.Lo, 0)
	hi, _ := bits.Sub64(0, uint64(d.Hi), borrow)
	return Dec128{Lo: lo, Hi: int64(hi)}
}

// Abs returns |d|.
func (d Dec128) Abs() Dec128 {
	if d.Sign() < 0 {
		return d.Neg()
	}
	return d
}

// Add returns d + o.
func (d Dec128) Add(o Dec128) Dec128 {
	lo, carry := bits.Add64(d.Lo, o.Lo, 0)
	hi, _ := bits.Add64(uint64(d.Hi), uint64(o.Hi), carry)
	return Dec128{Lo: lo, Hi: int64(hi)}
}

// Sub returns d - o.
func (d Dec128) Sub(o Dec128) Dec128 {
	lo, borrow := bits.Sub64(d.Lo, o.Lo, 0)
	hi, _ := bits.Sub64(uint64(d.Hi), uint64(o.Hi), borrow)
	return Dec128{Lo: lo, Hi: int64(hi)}
}

// Cmp compares d and o: -1 if d<o, 0 if equal, +1 if d>o.
func (d Dec128) Cmp(o Dec128) int {
	if d.Hi != o.Hi {
		if d.Hi < o.Hi {
			return -1
		}
		return 1
	}
	if d.Lo != o.Lo {
		if d.Lo < o.Lo {
			return -1
		}
		return 1
	}
	return 0
}

// Less reports d < o.
func (d Dec128) Less(o Dec128) bool { return d.Cmp(o) < 0 }

// Mul returns d * o (fixed-point: (d.units*o.units)/Scale), truncating
// toward zero. It panics on 128-bit overflow, which cannot occur for the
// magnitudes TPC-H produces.
//
// Mul has two paths with identical results. When both operands are
// int64 unit counts and their product is below Scale·2^64, it multiplies
// the magnitudes with one 64×64→128-bit multiply and divides by Scale
// with a constant divide (a multiply) or one 128/64-bit divide. Every
// other pair takes the 256-bit product and a four-word divide. Both
// truncate toward zero. The first returns only quotients below 2^64, so
// it never overflows: Mul panics exactly when the quotient's magnitude
// exceeds 2^127-1, on either path.
func (d Dec128) Mul(o Dec128) Dec128 {
	if x, y := int64(d.Lo), int64(o.Lo); d.Hi == x>>63 && o.Hi == y>>63 {
		hi, lo := bits.Mul64(abs64(x), abs64(y))
		if hi < Scale {
			q := lo / Scale
			if hi != 0 {
				q, _ = bits.Div64(hi, lo, Scale)
			}
			r := Dec128{Lo: q}
			if (x < 0) != (y < 0) {
				r = r.Neg()
			}
			return r
		}
	}
	neg := false
	a, b := d, o
	if a.Sign() < 0 {
		a, neg = a.Neg(), !neg
	}
	if b.Sign() < 0 {
		b, neg = b.Neg(), !neg
	}
	// 128x128 -> 256-bit product of magnitudes.
	p := mul128(uint64(a.Hi), a.Lo, uint64(b.Hi), b.Lo)
	// Divide the 256-bit product by Scale.
	q, _ := divBySmall(p, Scale)
	if q[3] != 0 || q[2] != 0 || q[1]>>63 != 0 {
		panic("decimal: Mul overflow")
	}
	r := Dec128{Lo: q[0], Hi: int64(q[1])}
	if neg {
		r = r.Neg()
	}
	return r
}

// MulInt64 returns d * v for an integer v.
func (d Dec128) MulInt64(v int64) Dec128 {
	neg := false
	a := d
	if a.Sign() < 0 {
		a, neg = a.Neg(), !neg
	}
	m := abs64(v)
	if v < 0 {
		neg = !neg
	}
	p := mul128(uint64(a.Hi), a.Lo, 0, m)
	if p[3] != 0 || p[2] != 0 || p[1]>>63 != 0 {
		panic("decimal: MulInt64 overflow")
	}
	r := Dec128{Lo: p[0], Hi: int64(p[1])}
	if neg {
		r = r.Neg()
	}
	return r
}

// DivInt64 returns d / v truncating toward zero. Used for averages
// (sum/count) in Q1.
func (d Dec128) DivInt64(v int64) Dec128 {
	if v == 0 {
		panic("decimal: division by zero")
	}
	neg := false
	a := d
	if a.Sign() < 0 {
		a, neg = a.Neg(), !neg
	}
	m := abs64(v)
	if v < 0 {
		neg = !neg
	}
	q, _ := divBySmall([4]uint64{a.Lo, uint64(a.Hi), 0, 0}, m)
	r := Dec128{Lo: q[0], Hi: int64(q[1])}
	if neg {
		r = r.Neg()
	}
	return r
}

// Div returns d / o in fixed point ((d.units*Scale)/o.units), truncating
// toward zero. Divisors whose magnitude exceeds 64 bits of units
// (~9.2e14) fall back to math/big; TPC-H never hits the slow path.
func (d Dec128) Div(o Dec128) Dec128 {
	if o.IsZero() {
		panic("decimal: division by zero")
	}
	neg := false
	a, b := d, o
	if a.Sign() < 0 {
		a, neg = a.Neg(), !neg
	}
	if b.Sign() < 0 {
		b, neg = b.Neg(), !neg
	}
	if b.Hi != 0 {
		return divBig(d, o)
	}
	// (a * Scale) is at most 192 bits; divide by the 64-bit b.Lo.
	p := mul128(uint64(a.Hi), a.Lo, 0, Scale)
	q, _ := divBySmall(p, b.Lo)
	if q[3] != 0 || q[2] != 0 || q[1]>>63 != 0 {
		panic("decimal: Div overflow")
	}
	r := Dec128{Lo: q[0], Hi: int64(q[1])}
	if neg {
		r = r.Neg()
	}
	return r
}

func divBig(d, o Dec128) Dec128 {
	num := d.bigInt()
	num.Mul(num, big.NewInt(Scale))
	num.Quo(num, o.bigInt())
	r, err := fromBig(num)
	if err != nil {
		panic("decimal: Div overflow")
	}
	return r
}

// mul128 multiplies two unsigned 128-bit numbers into a 256-bit result,
// little-endian words.
func mul128(aHi, aLo, bHi, bLo uint64) [4]uint64 {
	var r [4]uint64
	h0, l0 := bits.Mul64(aLo, bLo)
	r[0] = l0
	r[1] = h0
	h1, l1 := bits.Mul64(aLo, bHi)
	var c uint64
	r[1], c = bits.Add64(r[1], l1, 0)
	r[2], _ = bits.Add64(r[2], h1, c)
	h2, l2 := bits.Mul64(aHi, bLo)
	r[1], c = bits.Add64(r[1], l2, 0)
	r[2], c = bits.Add64(r[2], h2, c)
	r[3], _ = bits.Add64(r[3], 0, c)
	h3, l3 := bits.Mul64(aHi, bHi)
	r[2], c = bits.Add64(r[2], l3, 0)
	r[3], _ = bits.Add64(r[3], h3, c)
	return r
}

// divBySmall divides a 256-bit little-endian number by a 64-bit divisor,
// returning quotient and remainder.
func divBySmall(n [4]uint64, d uint64) ([4]uint64, uint64) {
	var q [4]uint64
	var rem uint64
	for i := 3; i >= 0; i-- {
		q[i], rem = bits.Div64(rem, n[i], d)
	}
	return q, rem
}

func (d Dec128) bigInt() *big.Int {
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

func fromBig(b *big.Int) (Dec128, error) {
	neg := b.Sign() < 0
	m := new(big.Int).Abs(b)
	// Magnitudes fit in 127 bits, except the minimum's: -2^127 has no
	// positive counterpart but is representable (and negates to itself
	// below).
	if m.BitLen() > 127 && !(neg && m.BitLen() == 128 && m.TrailingZeroBits() == 127) {
		return Zero, fmt.Errorf("decimal: %v overflows Dec128", b)
	}
	lo := new(big.Int).And(m, new(big.Int).SetUint64(^uint64(0))).Uint64()
	hi := new(big.Int).Rsh(m, 64).Uint64()
	d := Dec128{Lo: lo, Hi: int64(hi)}
	if neg {
		d = d.Neg()
	}
	return d, nil
}

// units returns the value in 1e-4 units if it fits in an int64.
func (d Dec128) units() (int64, bool) {
	if d.Hi == 0 && d.Lo>>63 == 0 {
		return int64(d.Lo), true
	}
	if d.Hi == -1 && d.Lo>>63 == 1 {
		return int64(d.Lo), true
	}
	return 0, false
}

// Float64 returns an approximate float64 value (for reporting only).
func (d Dec128) Float64() float64 {
	neg := d.Sign() < 0
	m := d.Abs()
	f := (float64(uint64(m.Hi))*18446744073709551616.0 + float64(m.Lo)) / Scale
	if neg {
		f = -f
	}
	return f
}

// String formats the decimal with all four fractional digits: the wire
// form AppendJSON produces, without its quotes.
func (d Dec128) String() string {
	var buf [maxJSONLen]byte
	b := d.AppendJSON(buf[:0])
	return string(b[1 : len(b)-1])
}

// Parse parses a decimal literal: an optional sign, then ASCII digits
// with an optional fractional part of up to four digits, at least one
// digit in all ("1", "-0.5", "+.25", "7.").
func Parse(s string) (Dec128, error) {
	orig := s
	neg := false
	if strings.HasPrefix(s, "-") {
		neg, s = true, s[1:]
	} else if strings.HasPrefix(s, "+") {
		s = s[1:]
	}
	intPart, fracPart := s, ""
	if i := strings.IndexByte(s, '.'); i >= 0 {
		intPart, fracPart = s[:i], s[i+1:]
	}
	if intPart == "" && fracPart == "" {
		return Zero, fmt.Errorf("decimal: empty literal %q", orig)
	}
	if len(fracPart) > ScaleDigits {
		return Zero, fmt.Errorf("decimal: %q has more than %d fractional digits", orig, ScaleDigits)
	}
	if !isDigits(intPart) || !isDigits(fracPart) {
		return Zero, fmt.Errorf("decimal: bad literal %q", orig)
	}
	// The units are the digits with the fraction padded to ScaleDigits.
	b, _ := new(big.Int).SetString(intPart+fracPart+strings.Repeat("0", ScaleDigits-len(fracPart)), 10)
	if neg {
		b.Neg(b)
	}
	return fromBig(b)
}

// isDigits reports whether s is ASCII digits only. Parse checks each part
// with it because big.Int.SetString would accept a sign of its own.
func isDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// MustParse parses a decimal literal, panicking on error.
func MustParse(s string) Dec128 {
	d, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return d
}
