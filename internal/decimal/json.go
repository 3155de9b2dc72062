package decimal

import (
	"fmt"
	"math/bits"
)

// JSON wire form: decimals travel as quoted strings ("123.4500"), never
// as JSON numbers — float64 cannot represent every Dec128 exactly, and a
// served sum must survive a client round-trip byte-identical. The serve
// layer's schemas declare the field {"type":"string","format":"decimal"}.

// maxJSONLen bounds AppendJSON's output: two quotes, a sign, the 39
// digits of 2^127 and the point.
const maxJSONLen = 2 + 1 + 39 + 1

// AppendJSON appends the decimal's wire form — the quoted literal with
// all four fractional digits — to dst without allocating, and is the
// one formatting path: String and MarshalJSON are built on it. Every
// 128-bit value formats, the minimum (whose magnitude has no positive
// counterpart) included, and Parse accepts the result back.
func (d Dec128) AppendJSON(dst []byte) []byte {
	m := d
	if d.Hi < 0 {
		// -2^127 negates to itself, which read as an unsigned pair is
		// exactly its magnitude.
		m = d.Neg()
	}
	hi, lo := uint64(m.Hi), m.Lo
	// Digits are produced least-significant first into the tail of buf:
	// peel 19-digit chunks off the 128-bit magnitude (two hardware
	// divisions each), then split each chunk with 64-bit arithmetic.
	var buf [maxJSONLen]byte
	i := len(buf) - 1
	buf[i] = '"'
	for n := 0; ; {
		var chunk uint64
		hi, chunk = bits.Div64(0, hi, 1e19)
		lo, chunk = bits.Div64(chunk, lo, 1e19)
		last := hi|lo == 0
		// A non-final chunk emits all 19 digits; the final one stops at
		// its leading digit, but never before "0.0000" is complete.
		for k := 0; k < 19 && (!last || chunk != 0 || n <= ScaleDigits); k++ {
			if n == ScaleDigits {
				i--
				buf[i] = '.'
			}
			i--
			buf[i] = byte('0' + chunk%10)
			chunk /= 10
			n++
		}
		if last {
			break
		}
	}
	if d.Hi < 0 {
		i--
		buf[i] = '-'
	}
	i--
	buf[i] = '"'
	return append(dst, buf[i:]...)
}

// MarshalJSON encodes the decimal as a quoted literal with all four
// fractional digits (the String form, which Parse accepts back).
func (d Dec128) MarshalJSON() ([]byte, error) {
	return d.AppendJSON(make([]byte, 0, maxJSONLen)), nil
}

// UnmarshalJSON decodes a quoted decimal literal.
func (d *Dec128) UnmarshalJSON(b []byte) error {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return fmt.Errorf("decimal: JSON value %s is not a string", b)
	}
	v, err := Parse(string(b[1 : len(b)-1]))
	if err != nil {
		return err
	}
	*d = v
	return nil
}
