package decimal

import "math/bits"

// In-place pointer arithmetic. The paper's unsafe compiled queries gain
// most of their Q1 advantage by passing 16-byte decimals to arithmetic
// functions by pointer and mutating accumulators in place instead of
// copying values through the managed calling convention (§7, Figure 11).
// These functions are the Go equivalents: they operate directly on
// Dec128 values living inside off-heap memory slots or accumulator
// buffers.

// AddAssign adds v's value to *d in place.
func AddAssign(d *Dec128, v *Dec128) {
	var c uint64
	d.Lo, c = bits.Add64(d.Lo, v.Lo, 0)
	hi, _ := bits.Add64(uint64(d.Hi), uint64(v.Hi), c)
	d.Hi = int64(hi)
}

// MulAdd computes acc += a*b without copying the operands, mirroring the
// generated code for sum(l_extendedprice * l_discount) style expressions.
func MulAdd(acc, a, b *Dec128) {
	p := a.Mul(*b)
	AddAssign(acc, &p)
}
