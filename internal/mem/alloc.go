package mem

import (
	"errors"
	"fmt"
	"sync/atomic"
	"unsafe"

	"repro/internal/types"
)

// ErrNullReference is returned when dereferencing (or removing through) a
// reference whose object has been removed from its host collection: "all
// references to a self-managed object implicitly become null after
// removing the object" (§2).
var ErrNullReference = errors.New("mem: null reference (object removed or never assigned)")

var errStringTooLong = fmt.Errorf("mem: string exceeds %d bytes", types.MaxStringLen)

// Alloc reserves a memory slot and an indirection entry for a new object
// in this context, returning the reference and the slot location. The
// caller writes the object's fields through the returned Obj and then
// calls Publish to make the slot visible to enumerations. Allocation is
// performed from session-local blocks (§3.5), so no lock is taken on the
// fast path.
func (c *Context) Alloc(s *Session) (types.Ref, Obj, error) {
	m := c.mgr
	var blk *Block
	var slot int
	for {
		blk = s.allocBlocks[c.id]
		if blk == nil {
			b, err := c.grabAllocBlock(s)
			if err != nil {
				return types.Ref{}, Obj{}, err
			}
			s.allocBlocks[c.id] = b
			blk = b
		}
		var ok bool
		slot, ok = c.findSlot(blk)
		if ok {
			break
		}
		// Block exhausted: abandon it and pick another.
		s.abandonAllocBlock(c.id, blk)
		s.allocBlocks[c.id] = nil
	}

	e, inc, err := c.prepareEntry(s, blk, slot)
	if err != nil {
		return types.Ref{}, Obj{}, err
	}
	blk.setBackEntry(slot, e)
	ref := types.Ref{Entry: e, Inc: inc, Gen: loadGen(e)}
	m.stats.Allocs.Add(1)
	return ref, Obj{Blk: blk, Slot: slot, Ptr: c.objPtr(blk, slot)}, nil
}

// objPtr computes the data pointer for row layouts (nil for columnar).
func (c *Context) objPtr(blk *Block, slot int) unsafe.Pointer {
	if c.layout == Columnar {
		return nil
	}
	return blk.SlotData(slot)
}

// prepareEntry wires an indirection entry to the slot and determines the
// incarnation number the new object's references will carry.
func (c *Context) prepareEntry(s *Session, blk *Block, slot int) (entryRef, uint32, error) {
	for {
		e, err := s.entryAlloc()
		if err != nil {
			return nil, 0, err
		}
		switch c.layout {
		case Columnar:
			storePayload(e, packColumnar(blk.id, slot))
		default:
			storePayload(e, uint64(uintptr(blk.SlotData(slot))))
		}
		switch c.layout {
		case RowDirect:
			// Incarnation authority lives in the slot header (§6).
			w := atomic.LoadUint32(blk.slotHeaderPtr(slot)) & IncMask
			// Mirror into the entry for diagnostics.
			atomic.StoreUint32(entryIncPtr(e), w)
			return e, w, nil
		default:
			// Incarnation authority lives in the entry (§3.2). A
			// recycled entry continues its incarnation sequence; an
			// entry at MaxInc must never host a new object, because
			// old references could alias it. Retire it and take
			// another (§3.1's overflow rule).
			w := atomic.LoadUint32(entryIncPtr(e)) & IncMask
			if w >= MaxInc {
				continue // entry leaked deliberately (retired)
			}
			return e, w, nil
		}
	}
}

// Publish makes an allocated slot visible as a valid object. Field data
// must be fully written before Publish; enumerating queries only read
// slots whose directory state is valid. The block's column synopses
// widen first, so any scan that admits the slot also sees bounds
// covering it (synopsis.go).
func (c *Context) Publish(s *Session, o Obj) {
	if o.Blk.buried.Load() {
		panic("mem: Publish into a buried block")
	}
	c.widenSynopses(o.Blk, o.Slot)
	o.Blk.storeSlotDir(o.Slot, packSlotDir(slotValid, 0))
	o.Blk.validCount.Add(1)
}

// grabAllocBlock implements the paper's block acquisition policy (§3.5):
// prefer a ripe block from the reclamation queue; if blocks are waiting
// but not ripe, lazily try to advance the global epoch and re-check; fall
// back to a fresh block from the unmanaged heap.
func (c *Context) grabAllocBlock(s *Session) (*Block, error) {
	b, waiting := c.takeReclaimable()
	if b == nil && waiting {
		c.mgr.TryAdvanceEpoch()
		b, _ = c.takeReclaimable()
	}
	if b != nil {
		// Ownership was claimed (CAS) inside takeReclaimable.
		return b, nil
	}
	nb, err := newBlock(c)
	if err != nil {
		return nil, err
	}
	nb.allocOwned.Store(true)
	c.appendBlock(nb)
	return nb, nil
}

// abandonAllocBlock releases a session's claim on its allocation block
// (it filled it, or the session closed) and routes the block by what it
// holds, so every abandoned block has a way out (§3.5):
//
//   - limbo slots over ReclaimThreshold: the reclamation queue, the
//     check Remove skipped while the block was owned;
//   - otherwise, live rows and free plus limbo slots (capacity − valid)
//     over the threshold: the queue too, so a half-claimed block is
//     reused rather than left to compaction;
//   - otherwise, no valid row: nothing to keep or move, so the block is
//     a compaction candidate and the next pass buries it, returning its
//     memory to the budget;
//   - otherwise: compaction candidacy, by occupancy as for any block.
//
// Abandonment is also the allocation-pressure signal point: an abandon
// only ever changes the abandoned block's own compaction candidacy, so
// the Maintainer wake-up check runs exactly when this block comes out
// sparse (a dense bulk load abandons full blocks and pays one O(1)
// candidacy test per block, never a context walk).
func (s *Session) abandonAllocBlock(ctxID uint32, b *Block) {
	b.allocOwned.Store(false)
	b.ctx.enqueueReclaim(b)
	if valid := b.validCount.Load(); valid > 0 {
		b.ctx.queueReusable(b, int32(b.capacity)-valid)
	}
	if s.mgr.isCompactionCandidate(b) {
		s.mgr.signalAllocPressure()
	}
}

// findSlot scans the slot directory from the allocation cursor for a free
// slot or a ripe limbo slot (§3.5). Returns the claimed slot, or false if
// the block is exhausted. Only the owning session calls this.
func (c *Context) findSlot(b *Block) (int, bool) {
	g := c.mgr.ep.Global()
	n := b.capacity
	i := b.cursor
	for scanned := 0; scanned < n; scanned++ {
		if i >= n {
			i = 0
		}
		w := b.SlotDirWord(i)
		switch slotDirState(w) {
		case slotFree:
			b.cursor = i + 1
			return i, true
		case slotLimbo:
			if slotEpochRipe(slotDirEpoch(w), g) {
				c.reclaimSlot(b, i)
				b.cursor = i + 1
				return i, true
			}
		}
		i++
	}
	return 0, false
}

// reclaimSlot reuses a ripe limbo slot: the old object's string storage
// is released now (no grace-period reader can still hold it), and the
// slot leaves limbo accounting. The slot directory stays limbo until
// Publish so concurrent enumerations keep skipping it.
func (c *Context) reclaimSlot(b *Block, slot int) {
	c.freeSlotStrings(b, slot)
	b.limboCount.Add(-1)
	c.mgr.stats.SlotsReclaimed.Add(1)
}

// freeSlotStrings releases the string payloads referenced by a dead slot.
func (c *Context) freeSlotStrings(b *Block, slot int) {
	for _, fi := range c.sch.StringFields {
		f := &c.sch.Fields[fi]
		p := (*types.StrRef)(b.FieldPtr(slot, f))
		if sr := *p; !sr.IsNil() {
			c.strings.freeStr(sr)
			*p = 0
		}
	}
}

// AllocString copies s into the context's string heap on behalf of the
// collection layer's marshalling code.
func (c *Context) AllocString(s *Session, str string) (types.StrRef, error) {
	return c.strings.allocStr(s, str)
}

// Remove frees the object named by ref (§3.5): it bumps the incarnation
// so all references become null, marks the slot limbo with the current
// epoch, and queues the block for reclamation when the limbo threshold is
// crossed. Must be called inside a critical section.
func (c *Context) Remove(s *Session, ref types.Ref) error {
	if !s.InCritical() {
		panic("mem: Remove outside critical section")
	}
	if ref.IsNil() {
		return ErrNullReference
	}
	e := entryRef(ref.Entry)
	if loadGen(e) != ref.Gen {
		return ErrNullReference
	}
	// Pre-validate against the entry before chasing the payload (see
	// Deref for why: stale payloads may point into unmapped blocks).
	if loadInc(e)&IncMask != ref.Inc {
		return ErrNullReference
	}
	m := c.mgr

	var blk *Block
	var slot int
	var cell *uint32
	var w uint32
	for {
		// Resolve the current location each attempt: a concurrent
		// relocation may move the object between retries.
		blk, slot, cell = c.locate(e)
		if blk == nil {
			return ErrNullReference
		}
		w = atomic.LoadUint32(cell)
		if w&IncMask != ref.Inc {
			return ErrNullReference
		}
		if w&FlagMask != 0 {
			// Coordinate with an in-flight relocation, then retry
			// ("this requires free to also use cas to increment
			// incarnation numbers", §5.1 fn. 2).
			c.resolveForWrite(s, blk, slot, cell, w)
			continue
		}
		if atomic.CompareAndSwapUint32(cell, w, (w+1)&IncMask) {
			break
		}
	}

	// In indirect layouts a relocation can complete between the payload
	// read above and the successful CAS while leaving the incarnation
	// word at the identical clean value (freeze → lock → unfreeze is an
	// ABA). The CAS fences the entry: no further move can start (its
	// freeze CAS expects the old incarnation) and any completed move has
	// already published its payload, so re-reading the payload now gives
	// the object's authoritative location. Direct mode needs no re-read:
	// its CAS was on the slot header, which a relocation turns into a
	// FORWARD-flagged word, failing the CAS outright.
	if c.layout != RowDirect {
		blk, slot, _ = c.locate(e)
		if blk == nil {
			// Unreachable in a correct system; fail loudly in tests.
			panic("mem: removed object's payload resolves to no block")
		}
	}

	g := m.ep.Global()
	blk.storeSlotDir(slot, packSlotDir(slotLimbo, g))
	blk.validCount.Add(-1)
	blk.limboCount.Add(1)

	newInc := (w + 1) & IncMask
	retire := newInc >= MaxInc
	switch c.layout {
	case RowDirect:
		// Maintain the entry's incarnation mirror so stale external
		// references fail fast without touching slot memory.
		atomic.StoreUint32(entryIncPtr(e), newInc)
		if retire {
			// The slot's incarnation is exhausted: take it out of
			// circulation until the overflow rescue scan has nulled all
			// stale direct pointers to it (§3.1). Identified by the
			// retired slot-directory state.
			blk.storeSlotDir(slot, packSlotDir(slotRetired, g))
			blk.limboCount.Add(-1)
			c.freeSlotStrings(blk, slot)
			m.stats.SlotsRetired.Add(1)
		}
		s.entryFree(e)
	default:
		if !retire {
			s.entryFree(e)
		} else {
			// The entry leaves circulation until the rescue scan clears
			// the stale references naming it (§3.1); the slot itself
			// remains reusable because its identity lives in the entry.
			m.retiredMu.Lock()
			m.retiredEntries = append(m.retiredEntries, retiredEntry{e: e, ctx: c})
			m.retiredMu.Unlock()
			m.stats.EntriesRetired.Add(1)
		}
	}
	m.stats.Frees.Add(1)
	c.enqueueReclaim(blk)
	return nil
}
