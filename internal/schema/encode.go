package schema

// Compiled row encoders: the result-path counterpart of the compiled
// scan kernels. encoding/json re-discovers a value's shape through
// reflection on every call, boxes it into an interface and formats
// dates and decimals through fmt; a served row stream pays that per
// row. Compile does the type walk once, at endpoint registration, and
// returns a closure tree that reads the value's fields at fixed offsets
// through unsafe pointers and appends their compact JSON to a caller-
// owned buffer: no reflection, no interface boxing and no allocation
// per value.
//
// The contract is byte identity with compact encoding/json (as
// json.Marshal and json.Encoder produce it, HTML-safe escaping
// included) for every value of every type the walk accepts; the
// differential and fuzz tests hold it to that. The one exception has no
// bytes to differ from: encoding/json refuses NaN and +/-Inf with an
// error, an append encoder cannot fail, and writes null.

import (
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
	"unsafe"

	"repro/internal/decimal"
	"repro/internal/types"
)

// Encoder appends the compact JSON encoding of *v to dst and returns the
// extended buffer.
type Encoder[T any] func(dst []byte, v *T) []byte

// Compile derives T's wire contract in one walk: its JSON Schema and
// the compiled append encoder for its values. A type the walk cannot
// describe or cannot encode identically to encoding/json is an error
// here, not on the first response.
func Compile[T any]() (*JSONSchema, Encoder[T], error) {
	w, err := wireOf(reflect.TypeFor[T](), make(map[reflect.Type]bool))
	if err != nil {
		return nil, nil, err
	}
	enc := w.enc
	return w.schema, func(dst []byte, v *T) []byte { return enc(dst, unsafe.Pointer(v)) }, nil
}

// MustCompile is Compile, panicking on error (endpoint registration).
func MustCompile[T any]() (*JSONSchema, Encoder[T]) {
	s, enc, err := Compile[T]()
	if err != nil {
		panic(err)
	}
	return s, enc
}

// encFn appends the JSON encoding of the value p points at.
type encFn func(dst []byte, p unsafe.Pointer) []byte

func isZero[T comparable](p unsafe.Pointer) bool {
	var zero T
	return *(*T)(p) == zero
}

func encBool(dst []byte, p unsafe.Pointer) []byte {
	return strconv.AppendBool(dst, *(*bool)(p))
}

func encInt[T int | int8 | int16 | int32 | int64](dst []byte, p unsafe.Pointer) []byte {
	return strconv.AppendInt(dst, int64(*(*T)(p)), 10)
}

func encUint[T uint | uint8 | uint16 | uint32 | uint64](dst []byte, p unsafe.Pointer) []byte {
	return strconv.AppendUint(dst, uint64(*(*T)(p)), 10)
}

func encFloat32(dst []byte, p unsafe.Pointer) []byte {
	return appendFloat(dst, float64(*(*float32)(p)), 32)
}

func encFloat64(dst []byte, p unsafe.Pointer) []byte {
	return appendFloat(dst, *(*float64)(p), 64)
}

// appendFloat is encoding/json's float formatting: ES6 number-to-string
// (shortest digits, exponent form outside [1e-6, 1e21) with an unpadded
// exponent).
func appendFloat(dst []byte, f float64, bits int) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return append(dst, "null"...)
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 {
		// float32 cutoffs compare as float32, or values that round
		// across them pick the other form.
		if bits == 64 && (abs < 1e-6 || abs >= 1e21) || bits == 32 && (float32(abs) < 1e-6 || float32(abs) >= 1e21) {
			format = 'e'
		}
	}
	dst = strconv.AppendFloat(dst, f, format, -1, bits)
	if format == 'e' {
		// clean up e-09 to e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

func encString(dst []byte, p unsafe.Pointer) []byte {
	return appendString(dst, *(*string)(p))
}

// htmlSafe marks the ASCII bytes encoding/json copies through unescaped
// under its default (HTML-safe) escaping.
var htmlSafe = func() (safe [utf8.RuneSelf]bool) {
	for b := range safe {
		safe[b] = b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return safe
}()

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string with encoding/json's exact
// escaping: \" \\ \b \f \n \r \t, \u00XX for the other control bytes and
// for < > &, the six bytes \ufffd for each invalid UTF-8 byte, and U+2028
// and U+2029 escaped. Runs of clean bytes are copied in one append.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if htmlSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

func encDec128(dst []byte, p unsafe.Pointer) []byte {
	return (*decimal.Dec128)(p).AppendJSON(dst)
}

func encDate(dst []byte, p unsafe.Pointer) []byte {
	return (*types.Date)(p).AppendJSON(dst)
}

func encPointer(elem encFn) encFn {
	return func(dst []byte, p unsafe.Pointer) []byte {
		q := *(*unsafe.Pointer)(p)
		if q == nil {
			return append(dst, "null"...)
		}
		return elem(dst, q)
	}
}

// sliceHeader is the runtime layout of a slice value.
type sliceHeader struct {
	data     unsafe.Pointer
	len, cap int
}

func sliceEmpty(p unsafe.Pointer) bool { return (*sliceHeader)(p).len == 0 }

func encSlice(elem encFn, size uintptr) encFn {
	return func(dst []byte, p unsafe.Pointer) []byte {
		h := (*sliceHeader)(p)
		if h.data == nil {
			return append(dst, "null"...)
		}
		return appendElems(dst, elem, h.data, size, h.len)
	}
}

func encArray(elem encFn, size uintptr, n int) encFn {
	return func(dst []byte, p unsafe.Pointer) []byte {
		return appendElems(dst, elem, p, size, n)
	}
}

func appendElems(dst []byte, elem encFn, base unsafe.Pointer, size uintptr, n int) []byte {
	dst = append(dst, '[')
	for i := 0; i < n; i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = elem(dst, unsafe.Add(base, uintptr(i)*size))
	}
	return append(dst, ']')
}

// fieldEnc is one struct field of a compiled encoder.
type fieldEnc struct {
	key string // `"name":`, escaped once at compile time
	off uintptr
	enc encFn
	// empty is set for omitempty fields of types that can be empty.
	empty func(p unsafe.Pointer) bool
}

func encStruct(fields []fieldEnc) encFn {
	return func(dst []byte, p unsafe.Pointer) []byte {
		next := byte('{')
		for i := range fields {
			f := &fields[i]
			fp := unsafe.Add(p, f.off)
			if f.empty != nil && f.empty(fp) {
				continue
			}
			dst = append(dst, next)
			next = ','
			dst = append(dst, f.key...)
			dst = f.enc(dst, fp)
		}
		if next == '{' {
			return append(dst, "{}"...)
		}
		return append(dst, '}')
	}
}
