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

// SubAssign subtracts v's value from *d in place.
func SubAssign(d *Dec128, v *Dec128) {
	var b uint64
	d.Lo, b = bits.Sub64(d.Lo, v.Lo, 0)
	hi, _ := bits.Sub64(uint64(d.Hi), uint64(v.Hi), b)
	d.Hi = int64(hi)
}

// AddUnitsAssign adds raw 1e-4 units to *d in place. Useful for
// accumulating int-backed columns (quantity) into decimal sums without
// materializing a Dec128.
func AddUnitsAssign(d *Dec128, units int64) {
	var sHi uint64
	if units < 0 {
		sHi = ^uint64(0)
	}
	var c uint64
	d.Lo, c = bits.Add64(d.Lo, uint64(units), 0)
	hi, _ := bits.Add64(uint64(d.Hi), sHi, c)
	d.Hi = int64(hi)
}

// MulAdd computes acc += a*b without copying the operands, mirroring the
// generated code for sum(l_extendedprice * l_discount) style expressions.
func MulAdd(acc, a, b *Dec128) {
	p := a.Mul(*b)
	AddAssign(acc, &p)
}
