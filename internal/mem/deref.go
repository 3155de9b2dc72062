package mem

import (
	"runtime"
	"sync/atomic"
	"unsafe"

	"repro/internal/schema"
	"repro/internal/types"
)

// Obj locates a live object. Row-layout objects are identified by their
// slot-data pointer (Ptr); Blk/Slot may be nil/0 when the object came
// from a fast-path dereference, which never needs them. Columnar objects
// carry Blk and Slot with Ptr nil.
type Obj struct {
	Blk  *Block
	Slot int
	Ptr  unsafe.Pointer
}

// Field returns the address of a field of the object under its layout.
// This is the accessor compiled queries use on join results; for row
// layouts it is a single pointer addition.
func (o Obj) Field(f *schema.Field) unsafe.Pointer {
	if o.Ptr != nil {
		return unsafe.Add(o.Ptr, f.Offset)
	}
	return o.Blk.FieldPtr(o.Slot, f)
}

// flagAction is the outcome of coordinating with an in-flight relocation.
type flagAction uint8

const (
	actProceed flagAction = iota // current location is safe to use
	actRetry                     // re-resolve the object's location
	actChase                     // forwarding tombstone: caller follows it
)

// Deref resolves a reference to its object, enforcing the paper's
// type-safety contract: the result is the exact object the reference was
// assigned, or ErrNullReference if it has been removed (§2). It must be
// called inside a critical section; the returned location stays valid
// until the session leaves (or refreshes) the section (§3.4).
//
// The implementation follows the dereference_object listing of §5.1: a
// clean incarnation match is the fast path; a frozen incarnation engages
// the three-case relocation protocol — freezing epoch (proceed), waiting
// phase (bail the relocation out, then proceed), moving phase (help move,
// then re-resolve).
func (c *Context) Deref(s *Session, ref types.Ref) (Obj, error) {
	if !s.InCritical() {
		panic("mem: Deref outside critical section")
	}
	if ref.IsNil() {
		return Obj{}, ErrNullReference
	}
	e := entryRef(ref.Entry)
	if loadGen(e) != ref.Gen {
		return Obj{}, ErrNullReference
	}
	// Validate the incarnation against the entry before chasing the
	// payload: a stale reference may name an address inside a block that
	// has already been unmapped. In indirect layouts the entry word is
	// authoritative; in direct mode it is a mirror maintained by Remove,
	// and the slot header is re-checked below.
	w := loadInc(e)
	if w&IncMask != ref.Inc {
		return Obj{}, ErrNullReference
	}
	// Fast path: clean incarnation match. The payload loaded after the
	// check is either the current location or — if a relocation races —
	// the pre-move location, whose bytes stay intact and mapped for the
	// rest of this grace period (§5.1 case a reasoning). No block/slot
	// resolution is needed for row layouts.
	if w == ref.Inc {
		payload := loadPayload(e)
		switch c.layout {
		case Columnar:
			blk := c.mgr.blockByID(uint32(payload >> 32))
			if blk == nil {
				return Obj{}, ErrNullReference
			}
			return Obj{Blk: blk, Slot: int(uint32(payload))}, nil
		case RowDirect:
			p := payloadAddr(payload)
			if atomic.LoadUint32((*uint32)(unsafe.Add(p, -8))) == ref.Inc {
				return Obj{Ptr: p}, nil
			}
			// Slot header disagrees (flags or a just-removed object):
			// take the full protocol below.
		default:
			return Obj{Ptr: payloadAddr(payload)}, nil
		}
	}
	for {
		blk, slot, cell := c.locate(e)
		if blk == nil {
			return Obj{}, ErrNullReference
		}
		w := atomic.LoadUint32(cell)
		if w&IncMask != ref.Inc {
			return Obj{}, ErrNullReference
		}
		if w == ref.Inc {
			// Fast path: matching incarnation, no flags ("the
			// incarnation number comparison that we have to do anyway
			// is enough to cover the most common path", §5.1).
			return Obj{Blk: blk, Slot: slot, Ptr: c.objPtr(blk, slot)}, nil
		}
		switch c.resolveForRead(s, blk, slot, cell, w) {
		case actProceed:
			return Obj{Blk: blk, Slot: slot, Ptr: c.objPtr(blk, slot)}, nil
		case actRetry, actChase:
			// actChase only arises for slot-header words (direct mode):
			// the entry payload already names the new location, so a
			// plain retry resolves it.
			continue
		}
	}
}

// DerefField follows the reference stored at cell — a reference field of
// an object in some source collection — into this (target) context. The
// target's layout decides both the cell's encoding (LoadRef) and the
// check, the way the paper's compiler emits the check that matches the
// referenced collection's representation:
//
//   - RowDirect: a non-null pointer whose slot header matches the stored
//     incarnation (§6); a relocated object is reached through its
//     tombstone and the new address is written back to cell ("the query
//     also updates the direct pointer to the object's new memory
//     location"), and anything else takes the full protocol;
//   - RowIndirect and Columnar: the cell holds a types.Ref, and Deref's
//     clean-incarnation fast path is the hop.
//
// Must run inside a critical section; it panics outside one.
func (c *Context) DerefField(s *Session, cell unsafe.Pointer) (Obj, error) {
	if c.layout != RowDirect {
		return c.Deref(s, *(*types.Ref)(cell))
	}
	if !s.InCritical() {
		panic("mem: DerefField outside critical section")
	}
	addr := atomic.LoadUint64((*uint64)(cell))
	if addr == 0 {
		return Obj{}, ErrNullReference
	}
	p := payloadAddr(addr)
	inc := *(*uint32)(unsafe.Add(cell, 8))
	// The slot header sits 8 bytes before the data. Reading it is
	// safe even for a stale pointer: blocks holding targets of direct
	// fields are only unmapped after the fix-up scan has rewritten or
	// nulled those fields and a full grace period has passed.
	if atomic.LoadUint32((*uint32)(unsafe.Add(p, -8))) == inc {
		return Obj{Ptr: p}, nil
	}
	cur, err := c.derefDirect(s, p, inc)
	if err != nil {
		return Obj{}, err
	}
	if cur != p {
		atomic.StoreUint64((*uint64)(cell), uint64(uintptr(cur)))
	}
	return Obj{Ptr: cur}, nil
}

// derefDirect is DerefField's slow path for a direct pointer into this
// RowDirect context: addr is the stored slot-data address and inc the
// stored incarnation (§6). It returns the object's current slot-data
// address, which differs from addr when the object was relocated.
func (c *Context) derefDirect(s *Session, addr unsafe.Pointer, inc uint32) (unsafe.Pointer, error) {
	m := c.mgr
	cur := addr
	for {
		blk := m.blockFromAddr(cur)
		if blk == nil {
			return nil, ErrNullReference
		}
		slot := blk.slotIndexFromData(cur)
		cell := blk.slotHeaderPtr(slot)
		w := atomic.LoadUint32(cell)
		if w&IncMask != inc {
			return nil, ErrNullReference
		}
		if w == inc {
			return cur, nil
		}
		switch c.resolveForRead(s, blk, slot, cell, w) {
		case actProceed:
			return cur, nil
		case actChase:
			// Tombstone: reach the object through its back-pointer and
			// indirection entry (§6, Figure 5). The tombstoned block is
			// kept alive until the fix-up scan and the grace period
			// complete, so this chase is safe.
			e := blk.backEntry(slot)
			cur = payloadAddr(loadPayload(e))
		case actRetry:
			// Re-read the same location.
		}
	}
}

// StoreRef encodes r into cell, a reference field of an object in some
// source collection, in this (target) context's encoding: the 16-byte
// types.Ref, or for a RowDirect target the §6 direct word {addr, inc}.
func (c *Context) StoreRef(cell unsafe.Pointer, r types.Ref) {
	if c.layout != RowDirect {
		*(*types.Ref)(cell) = r
		return
	}
	addr, inc := directWord(r)
	*(*uint64)(cell) = addr
	*(*uint32)(unsafe.Add(cell, 8)) = inc
	*(*uint32)(unsafe.Add(cell, 12)) = 0
}

// LoadRef decodes the reference StoreRef wrote at cell.
func (c *Context) LoadRef(cell unsafe.Pointer) types.Ref {
	if c.layout != RowDirect {
		return *(*types.Ref)(cell)
	}
	return c.refFromDirect(atomic.LoadUint64((*uint64)(cell)), *(*uint32)(unsafe.Add(cell, 8)))
}

// directWord resolves a reference into the direct-pointer encoding (§6):
// the current slot-data address and the incarnation the reference
// carries. This write barrier validates the reference first and encodes a
// stale one as null — §2's "references implicitly become null" applied at
// store time. The overflow rescue (§3.1) depends on this: once the
// background scan has nulled the stale direct pointers to a retired slot,
// no new ones can be minted, so the slot's incarnation sequence can
// restart.
func directWord(r types.Ref) (addr uint64, inc uint32) {
	if r.IsNil() {
		return 0, 0
	}
	e := entryRef(r.Entry)
	if loadGen(e) != r.Gen || loadInc(e)&IncMask != r.Inc {
		return 0, 0
	}
	return loadPayload(e), r.Inc
}

// refFromDirect rebuilds an indirect reference from a direct word into c,
// using the slot's back-pointer to find the indirection entry.
func (c *Context) refFromDirect(addr uint64, inc uint32) types.Ref {
	if addr == 0 {
		return types.Ref{}
	}
	p := payloadAddr(addr)
	blk := c.mgr.blockFromAddr(p)
	if blk == nil {
		return types.Ref{}
	}
	e := blk.backEntry(blk.slotIndexFromData(p))
	return types.Ref{Entry: e, Inc: inc, Gen: loadGen(e)}
}

// locate resolves entry e's current payload to the object's block and
// slot and to its authoritative incarnation cell: the entry word in
// indirect layouts (§3.2), the slot header in direct mode (§6). blk is
// nil when the payload names no registered block.
func (c *Context) locate(e entryRef) (blk *Block, slot int, cell *uint32) {
	payload := loadPayload(e)
	if c.layout == Columnar {
		id, sl := unpackColumnar(payload)
		return c.mgr.blockByID(id), sl, entryIncPtr(e)
	}
	p := payloadAddr(payload)
	if blk = c.mgr.blockFromAddr(p); blk == nil {
		return nil, 0, nil
	}
	slot = blk.slotIndexFromData(p)
	if c.layout == RowDirect {
		return blk, slot, blk.slotHeaderPtr(slot)
	}
	return blk, slot, entryIncPtr(e)
}

// resolveForRead coordinates a *reader* with an in-flight compaction
// (§5.1's dereference cases).
func (c *Context) resolveForRead(s *Session, blk *Block, slot int, cell *uint32, w uint32) flagAction {
	if w&FlagLock != 0 {
		// A mover holds the relocation lock; spin until it resolves
		// ("we spin until it is unset", §5.1).
		runtime.Gosched()
		return actRetry
	}
	if w&FlagFrozen != 0 {
		m := c.mgr
		if s.ep.Epoch() != m.relocEpoch.Load() {
			// Case (a): freezing epoch — no relocation this epoch.
			return actProceed
		}
		if !m.movingPhase.Load() {
			// Case (b): waiting phase — fail the relocation, proceed.
			c.bailOutRelocation(blk, slot, cell)
			return actProceed
		}
		// Case (c): moving phase — help, then re-resolve.
		c.helpRelocate(blk, slot, cell)
		return actRetry
	}
	if w&FlagForward != 0 {
		return actChase
	}
	return actRetry
}

// resolveForWrite coordinates a *mutator* (Remove) with an in-flight
// compaction. Unlike readers, a mutator cannot proceed against a frozen
// word — it must own a clean word to CAS the incarnation — so cases (a)
// and (b) both bail the relocation out first (§5.1 footnote: "this
// requires free to also use cas to increment incarnation numbers").
func (c *Context) resolveForWrite(s *Session, blk *Block, slot int, cell *uint32, w uint32) flagAction {
	if w&FlagLock != 0 {
		runtime.Gosched()
		return actRetry
	}
	if w&FlagFrozen != 0 {
		m := c.mgr
		if s.ep.Epoch() == m.relocEpoch.Load() && m.movingPhase.Load() {
			c.helpRelocate(blk, slot, cell)
		} else {
			c.bailOutRelocation(blk, slot, cell)
		}
		return actRetry
	}
	if w&FlagForward != 0 {
		return actChase
	}
	return actRetry
}
