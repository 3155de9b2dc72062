package mem

import (
	"sync/atomic"
	"unsafe"

	"repro/internal/types"
)

// DirectWord resolves a reference into the direct-pointer encoding stored
// inside objects that reference a RowDirect collection (§6): the current
// slot-data address and the incarnation the reference carries. The write
// barrier validates the reference first and encodes a stale one as null —
// §2's "references implicitly become null" applied at store time. The
// overflow rescue (§3.1) depends on this: once the background scan has
// nulled the stale direct pointers to a retired slot, no new ones can be
// minted, so the slot's incarnation sequence can restart.
func DirectWord(r types.Ref) (addr uint64, inc uint32) {
	if r.IsNil() {
		return 0, 0
	}
	e := entryRef(r.Entry)
	if loadGen(e) != r.Gen || loadInc(e)&IncMask != r.Inc {
		return 0, 0
	}
	return loadPayload(e), r.Inc
}

// RefFromDirect rebuilds an indirect reference from a direct in-object
// pointer into ctx, using the slot's back-pointer to find the indirection
// entry (unmarshalling path of the collection layer).
func RefFromDirect(c *Context, addr uint64, inc uint32) types.Ref {
	if addr == 0 {
		return types.Ref{}
	}
	p := payloadAddr(addr)
	blk := c.mgr.blockFromAddr(p)
	if blk == nil {
		return types.Ref{}
	}
	slot := blk.slotIndexFromData(p)
	e := blk.backEntry(slot)
	return types.Ref{Entry: e, Inc: inc, Gen: loadGen(e)}
}

// objFromPtr builds an Obj from a slot-data pointer into ctx (row
// layouts only).
func objFromPtr(c *Context, p unsafe.Pointer) Obj {
	blk := c.mgr.blockFromAddr(p)
	if blk == nil {
		return Obj{}
	}
	return Obj{Blk: blk, Slot: blk.slotIndexFromData(p), Ptr: p}
}

// The following accessors are the building blocks of the dereference
// checks that the paper's modified JIT compiler inlines into generated
// query code (§2, §3.1). Compiled query packages use them to open-code
// the fast path — generation match, clean incarnation match, payload
// load — and fall back to Context.Deref / FieldRef.Deref for the flagged
// slow path (relocation protocol, null). Each is small enough for the Go
// inliner.

// EntryGen loads an indirection entry's reuse generation.
func EntryGen(e unsafe.Pointer) uint32 {
	return atomic.LoadUint32((*uint32)(unsafe.Add(e, 12)))
}

// EntryIncWord loads an indirection entry's incarnation word (flags
// included; a clean match against Ref.Inc means no flags are set).
func EntryIncWord(e unsafe.Pointer) uint32 {
	return atomic.LoadUint32((*uint32)(unsafe.Add(e, 8)))
}

// EntryPayloadRow loads an entry's payload as a row-layout data pointer.
// Only valid for contexts with row layouts.
func EntryPayloadRow(e unsafe.Pointer) unsafe.Pointer {
	return types.LaunderAddr(uintptr(atomic.LoadUint64((*uint64)(e))))
}

// SlotIncWord loads the slot-header incarnation word for a row-direct
// slot-data pointer (§6: the incarnation lives 8 bytes before the data).
func SlotIncWord(p unsafe.Pointer) uint32 {
	return atomic.LoadUint32((*uint32)(unsafe.Add(p, -8)))
}
