package mem

import (
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"
)

// Overflow rescue (§3.1): "We do not expect incarnation numbers to
// overflow in the lifetime of a typical application, but if overflows
// should occur, we stop reusing these memory slots until a background
// thread has scanned all manually managed objects and has set all
// invalid references to null."
//
// Retirement (the "stop reusing" half) happens inline in Remove: an
// indirection entry whose counter would overflow goes on the manager's
// retired list; in direct mode the slot's directory state becomes
// slotRetired. This file implements the scan: null every stale
// in-object reference naming a retired resource, wait out a grace
// period so no reader still holds a pre-null copy, then restart the
// incarnation sequence and put the resource back in circulation. The
// Maintainer is the background thread that runs it, on every pass that
// finds retired resources (see StartMaintainer).
//
// Go-side references held by the application need no scan: they carry
// the entry generation (types.Ref.Gen), which the rescue bumps, so stale
// application references keep failing the generation check after reuse.
// In-object references are the ones that must be nulled — the direct
// encoding (§6) carries no generation.
//
// One theoretical hole remains, shared with the paper's scheme: an Add
// that stays unpublished across the entire scan and both grace periods
// can smuggle a stale direct encoding past the scan. Exploiting it also
// requires the slot to burn through all 2^29 incarnations again before
// the next scan. The write-barrier validation in directWord keeps this
// the only remaining path.

// rescueStats reports one rescue pass.
type rescueStats struct {
	EntriesRescued int
	SlotsRescued   int
	RefsNulled     int
}

// rescueOverflowed runs one §3.1 background scan. It is safe to call
// concurrently with application work; it excludes compaction for its
// duration (both walk block memory) and returns without rescuing if the
// grace-period wait times out (a later call retries).
func (m *Manager) rescueOverflowed() (rescueStats, error) {
	// Compaction is excluded for the whole rescue: both walk block memory
	// and compaction is the only mechanism that unmaps blocks mid-run.
	m.compactMu.Lock()
	defer m.compactMu.Unlock()

	var st rescueStats

	cs, err := m.NewSession()
	if err != nil {
		return st, err
	}
	defer cs.Close()

	// Collect victims: retired entries (indirect/columnar removals)...
	m.retiredMu.Lock()
	entries := m.retiredEntries
	m.retiredEntries = nil
	m.retiredMu.Unlock()

	victimsByCtx := make(map[*Context]map[entryRef]bool)
	for _, re := range entries {
		set := victimsByCtx[re.ctx]
		if set == nil {
			set = make(map[entryRef]bool)
			victimsByCtx[re.ctx] = set
		}
		set[re.e] = true
	}
	// ... and retired slots (direct-mode removals), found by their
	// slot-directory state.
	type retiredSlot struct {
		blk  *Block
		slot int
	}
	slotsByCtx := make(map[*Context][]retiredSlot)
	cs.Enter()
	for _, ctx := range m.Contexts() {
		if ctx.layout != RowDirect {
			continue
		}
		for _, b := range ctx.SnapshotBlocks() {
			for i := 0; i < b.capacity; i++ {
				if slotDirState(b.SlotDirWord(i)) == slotRetired {
					slotsByCtx[ctx] = append(slotsByCtx[ctx], retiredSlot{b, i})
				}
			}
		}
	}
	cs.Exit()
	if len(victimsByCtx) == 0 && len(slotsByCtx) == 0 {
		return st, nil
	}
	m.stats.OverflowScans.Add(1)

	// nullPass walks every registered in-edge of every context that has
	// victims and nulls the stale references. Two passes bracket the
	// grace period so objects published mid-scan are covered too.
	nullPass := func() {
		cs.Enter()
		defer cs.Exit()
		// Entry victims belong to indirect and columnar contexts, whose
		// in-edges hold entry pointers; retired slots to RowDirect ones,
		// whose in-edges hold direct pointers.
		for ctx, victims := range victimsByCtx {
			for _, edge := range ctx.edges() {
				st.RefsNulled += m.nullIndirectRefs(cs, edge, victims)
			}
		}
		for ctx := range slotsByCtx {
			for _, edge := range ctx.edges() {
				st.RefsNulled += m.nullDirectRefs(cs, edge)
			}
		}
	}

	nullPass()
	// Grace period: every reference copy taken before the null pass has
	// been abandoned once all sessions pass two epochs.
	if !m.advanceTwo(cs, 500*time.Millisecond) {
		// A stalled session blocks the epoch; put the entry victims back
		// and retry on a later scan. Slots simply stay retired.
		m.retiredMu.Lock()
		m.retiredEntries = append(m.retiredEntries, entries...)
		m.retiredMu.Unlock()
		return rescueStats{RefsNulled: st.RefsNulled}, nil
	}
	nullPass()

	// Reuse: restart incarnation sequences and return resources to
	// circulation.
	for _, re := range entries {
		atomic.StoreUint32(entryIncPtr(re.e), 0)
		atomic.AddUint32(entryGenPtr(re.e), 1)
	}
	if len(entries) > 0 {
		refs := make([]entryRef, len(entries))
		for i, re := range entries {
			refs[i] = re.e
		}
		m.table.freeBatch(refs, m.ep.Global())
		st.EntriesRescued = len(entries)
		m.stats.EntriesRescued.Add(int64(len(entries)))
	}
	g := m.ep.Global()
	for ctx, slots := range slotsByCtx {
		for _, rs := range slots {
			atomic.StoreUint32(rs.blk.slotHeaderPtr(rs.slot), 0)
			rs.blk.storeSlotDir(rs.slot, packSlotDir(slotLimbo, g))
			rs.blk.limboCount.Add(1)
			ctx.enqueueReclaim(rs.blk)
			st.SlotsRescued++
		}
	}
	m.stats.SlotsRescued.Add(int64(st.SlotsRescued))
	m.stats.RefsNulled.Add(int64(st.RefsNulled))
	return st, nil
}

// nullIndirectRefs nulls every reference field of edge.src whose entry
// pointer names a victim entry.
func (m *Manager) nullIndirectRefs(cs *Session, edge refEdge, victims map[entryRef]bool) int {
	f := &edge.src.sch.Fields[edge.field]
	nulled := 0
	for _, sb := range edge.src.SnapshotBlocks() {
		cs.Refresh()
		for slot := 0; slot < sb.capacity; slot++ {
			if slotDirState(sb.SlotDirWord(slot)) != slotValid {
				continue
			}
			fp := sb.FieldPtr(slot, f)
			// types.Ref layout: entry pointer in the first word. Nulling
			// stores nil there first; a racing reader that already loaded
			// the old entry pointer fails the incarnation check (the
			// victim's counter sits at MaxInc, which no reference holds).
			ep := (*uint64)(fp)
			a := atomic.LoadUint64(ep)
			if a == 0 || !victims[payloadAddr(a)] {
				continue
			}
			if atomic.CompareAndSwapUint64(ep, a, 0) {
				// Clear the inc/gen words too so the field is a pristine
				// null reference.
				atomic.StoreUint64((*uint64)(unsafe.Add(fp, 8)), 0)
				nulled++
			}
		}
	}
	return nulled
}

// nullDirectRefs nulls every direct-pointer field of edge.src whose
// target slot is retired.
func (m *Manager) nullDirectRefs(cs *Session, edge refEdge) int {
	f := &edge.src.sch.Fields[edge.field]
	nulled := 0
	for _, sb := range edge.src.SnapshotBlocks() {
		cs.Refresh()
		for slot := 0; slot < sb.capacity; slot++ {
			if slotDirState(sb.SlotDirWord(slot)) != slotValid {
				continue
			}
			fp := sb.FieldPtr(slot, f)
			ap := (*uint64)(fp)
			a := atomic.LoadUint64(ap)
			if a == 0 {
				continue
			}
			tb := m.blockFromAddr(payloadAddr(a))
			if tb == nil {
				continue
			}
			ts := tb.slotIndexFromData(payloadAddr(a))
			if slotDirState(tb.SlotDirWord(ts)) != slotRetired {
				continue
			}
			// CAS so a concurrent tombstone fix-up (which rewrites the
			// address to a live location) is never overwritten.
			if atomic.CompareAndSwapUint64(ap, a, 0) {
				atomic.StoreUint64((*uint64)(unsafe.Add(fp, 8)), 0)
				nulled++
			}
		}
	}
	return nulled
}

// advanceTwo drives the global epoch two steps past the current one,
// giving up at the deadline if a session refuses to move.
func (m *Manager) advanceTwo(cs *Session, timeout time.Duration) bool {
	target := m.ep.Global() + 2
	deadline := time.Now().Add(timeout)
	for m.ep.Global() < target {
		if m.TryAdvanceEpoch() {
			continue
		}
		if time.Now().After(deadline) {
			return false
		}
		runtime.Gosched()
	}
	return true
}

// RetiredEntries reports the number of entries currently awaiting rescue.
func (m *Manager) RetiredEntries() int {
	m.retiredMu.Lock()
	defer m.retiredMu.Unlock()
	return len(m.retiredEntries)
}
