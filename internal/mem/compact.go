package mem

import (
	"context"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/fault"
)

// Compaction (paper §5) empties under-occupied blocks into fresh ones
// without stopping the application. A run proceeds through the freezing
// epoch (relocation lists built, frozen bits set), then the relocation
// epoch with its waiting phase (readers bail relocations out) and moving
// phase (the compactor and helping readers move objects). Blocks always
// participate in groups whose entire content lands in one target block
// (§5.2); enumerating queries pin groups through query counters, and the
// compactor bails out of pinned groups after a timeout.

// CompactionGroup is a set of low-occupancy blocks emptied into fresh
// target blocks. Size-ordered packing keeps the paper's one-target shape
// (§5.2: a 30% threshold yields three blocks per group); clustered
// packing (PackCluster) spans several targets so the group's rows,
// key-sorted across all sources, deal out into consecutive key-quantile
// slices — the redistribution step that single-target groups cannot
// perform (a lone target can only inherit the union of its sources'
// ranges, so churn-scattered heaps would never re-cluster).
type CompactionGroup struct {
	ctx     *Context
	blocks  []*Block
	targets []*Block
	// pins is the paper's per-group query counter: enumerations that
	// process the group's pre-relocation state hold a pin; the group is
	// not moved while pinned.
	pins  atomic.Int32
	state atomic.Uint32
}

// Group states.
const (
	gPlanned uint32 = iota
	gFrozen
	gMoving
	gDone
	gAborted
)

// clusterGroupSpan is how many targets' worth of rows a clustered
// (PackCluster) compaction bin may span. A single-target group can only
// rebuild bounds equal to the union of its sources' ranges, so a
// churn-scattered heap never re-clusters; dealing a key-sorted group
// across N targets carves it into N disjoint key-quantile slices.
// Worst case (every source bounds-wide, e.g. steady upsert scatter into
// reclaimed slots heap-wide) each group still spans the whole domain,
// so a point window admits one slice per group: the steady-state pruned
// fraction is ~1-1/span. 32 keeps that above 95% while bounding a
// group's transient target charge (span × block size) and the freeze
// sort to a few MB.
const clusterGroupSpan = 32

// clusterStaleFactor is the bounds-staleness threshold for clustered
// candidacy: a block becomes a re-clustering candidate — regardless of
// occupancy — once its cluster-key span exceeds this many times its
// fair share of the occupied domain. See compactionCandidates.
const clusterStaleFactor = 8

// Blocks returns the group's source blocks (diagnostics).
func (g *CompactionGroup) Blocks() []*Block { return g.blocks }

// Target returns the group's first target block (diagnostics).
func (g *CompactionGroup) Target() *Block { return g.targets[0] }

// Relocation entry states.
const (
	rPending uint32 = iota
	rDone
	rFailed // bailed out by a reader in the waiting phase (§5.1 case b)
	rSkipped
)

// relocEntry schedules one slot move ("a list of all slots that have to
// be moved and the memory address the slots have to be moved to", §5.1).
// inc records the object's incarnation at scheduling time; every freeze
// and lock transition CASes against exactly this incarnation, so a
// concurrent removal (which bumps the incarnation) permanently disarms
// the relocation — without this, a mover racing a bailed-out removal
// could resurrect the dead object in the target block.
type relocEntry struct {
	slot   int32
	toSlot int32
	inc    uint32
	toBlk  *Block
	entry  entryRef
	status atomic.Uint32
}

type relocList struct {
	entries []relocEntry
	bySlot  []int32 // slot -> index+1; 0 = not scheduled
}

// anyMoved reports whether some scheduled object left its source slot.
func (l *relocList) anyMoved() bool {
	for i := range l.entries {
		if l.entries[i].status.Load() == rDone {
			return true
		}
	}
	return false
}

func (l *relocList) find(slot int) *relocEntry {
	if l == nil || slot >= len(l.bySlot) {
		return nil
	}
	i := l.bySlot[slot]
	if i == 0 {
		return nil
	}
	return &l.entries[i-1]
}

// incCellFor returns the authoritative incarnation word for a slot: the
// indirection entry in indirect layouts (§3.2), the slot header in direct
// mode (§6).
func (c *Context) incCellFor(blk *Block, slot int) *uint32 {
	if c.layout == RowDirect {
		return blk.slotHeaderPtr(slot)
	}
	return (*uint32)(unsafe.Add(blk.backEntry(slot), 8))
}

// CompactNow runs one full compaction pass over all contexts with
// GOMAXPROCS move-phase workers, returning the number of objects moved.
// Concurrent application work may proceed; only one compaction runs at
// a time.
func (m *Manager) CompactNow() (int, error) {
	return m.compactNowWorkers(0)
}

// compactNowWorkers runs one full compaction pass with an explicit
// move-phase worker count; workers <= 0 selects GOMAXPROCS. The pass is
// planned exactly once — one block-order snapshot, one decision per
// compaction group — and then the per-group move work fans out over a
// pool of worker sessions drawn from LeaseSession with an atomic
// work-stealing cursor. Groups are independent by construction
// (disjoint source blocks, private target block, per-group pins and
// abort), so the epoch-wait/retry/abort protocol is untouched and stays
// per-group; with workers == 1 the moving phase is byte-for-byte the
// serial pass, kept as the oracle.
func (m *Manager) compactNowWorkers(workers int) (int, error) {
	return m.compactNowWorkersCtx(context.Background(), workers)
}

// compactNowWorkersCtx is compactNowWorkers with a cancellation context,
// observed at group-claim granularity: a canceled pass aborts every
// not-yet-moving group (sources return to circulation untouched — a
// group is only abortable before its first object moves), finishes any
// group already mid-move, runs the full epoch/sweep cleanup, and returns
// the context's cause alongside the objects moved so far. A panic in a
// move worker is likewise scoped to its group: the pass completes,
// cleanup still runs, and the panic surfaces as an ErrWorkerPanic error.
func (m *Manager) compactNowWorkersCtx(cctx context.Context, workers int) (int, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if err := context.Cause(cctx); err != nil {
		return 0, err
	}
	m.compactMu.Lock()
	defer m.compactMu.Unlock()
	start := time.Now()
	defer func() { m.stats.CompactNanos.Add(time.Since(start).Nanoseconds()) }()

	cs, err := m.NewSession()
	if err != nil {
		return 0, err
	}
	defer cs.Close()

	if !m.ep.AcquireGate(cs.ep) {
		return 0, nil
	}
	defer m.ep.ReleaseGate(cs.ep)

	groups := m.planGroups()
	if len(groups) == 0 {
		return 0, nil
	}
	m.stats.Compactions.Add(1)

	// The compaction session pins the pre-freezing epoch for the whole
	// run, standing in for the paper's "we run the compaction thread in
	// a critical section that uses the thread-local epoch e" (§5.1).
	cs.Enter()
	defer cs.Exit()

	freezing := m.ep.Global()
	reloc := freezing + 1
	m.relocEpoch.Store(reloc)
	m.movingPhase.Store(false)

	// Freezing epoch: build relocation lists, set frozen bits.
	for _, g := range groups {
		m.freezeGroup(g)
		g.state.Store(gFrozen)
	}

	const epochWait = 500 * time.Millisecond
	done := cctx.Done()
	// Wait for all threads to reach the freezing epoch, then open the
	// relocation epoch. Cancellation during either wait aborts the run
	// before anything moved — the cheap exit.
	if !m.waitAllAtLeast(freezing, cs, epochWait, done) {
		m.abortRun(groups)
		return 0, context.Cause(cctx)
	}
	for m.ep.Global() < reloc {
		if _, ok := m.ep.TryAdvanceOwner(cs.ep); !ok {
			runtime.Gosched()
		}
	}
	// Waiting phase: lasts until every thread has entered the relocation
	// epoch; readers that hit frozen objects bail their relocations out.
	if !m.waitAllAtLeast(reloc, cs, epochWait, done) {
		m.abortRun(groups)
		return 0, context.Cause(cctx)
	}
	// Moving phase: fan the per-group move work out over the workers.
	m.movingPhase.Store(true)
	moved, moveErr := m.moveGroups(groups, workers, done)
	var emptied []*Block
	basesByCtx := make(map[*Context]map[uintptr]bool)
	for _, g := range groups {
		if g.state.Load() == gAborted {
			continue
		}
		m.stats.GroupsMoved.Add(1)
		for _, b := range g.blocks {
			if b.validCount.Load() == 0 {
				emptied = append(emptied, b)
				set := basesByCtx[g.ctx]
				if set == nil {
					set = make(map[uintptr]bool)
					basesByCtx[g.ctx] = set
				}
				set[uintptr(b.base)] = true
			}
		}
	}
	m.stats.BytesReclaimed.Add(int64(len(emptied)) * int64(m.cfg.BlockSize))

	// Direct-pointer fix-up: rewrite in-object pointers into relocated
	// blocks (§6) while the tombstoned blocks are still mapped.
	for ctx, bases := range basesByCtx {
		if ctx.layout == RowDirect {
			m.fixupDirectPointers(ctx, bases)
		}
	}

	// Retire emptied blocks: out of the enumeration order now, memory
	// released after the grace period.
	gone := make(map[*Context]map[*Block]bool)
	for _, b := range emptied {
		set := gone[b.ctx]
		if set == nil {
			set = make(map[*Block]bool)
			gone[b.ctx] = set
		}
		set[b] = true
	}
	for ctx, set := range gone {
		ctx.removeBlocks(set)
	}
	for _, b := range emptied {
		// Invariant check: an emptied block must hold no valid slots.
		n := 0
		for i := 0; i < b.capacity; i++ {
			if slotDirState(b.SlotDirWord(i)) == slotValid {
				n++
			}
		}
		if n != 0 || b.validCount.Load() != 0 {
			panic("mem: burying a block with valid slots (accounting bug)")
		}
		b.buried.Store(true)
		m.bury(b, ownedLimbo(b))
	}

	// Close the relocation epoch. Before discarding the relocation
	// lists, sweep any leftover frozen bits (relocations that stayed
	// failed through every retry round): once the lists are gone, nobody
	// else could resolve them.
	m.movingPhase.Store(false)
	m.relocEpoch.Store(0)
	for _, g := range groups {
		for _, b := range g.blocks {
			if list := b.reloc.Load(); list != nil {
				// Seal before the group claim drops, so an allocator's
				// claim (which re-checks the group) sees one or the other.
				if b.validCount.Load() != 0 && list.anyMoved() {
					b.sealed.Store(true)
				}
				for i := range list.entries {
					re := &list.entries[i]
					if st := re.status.Load(); st == rDone || st == rSkipped {
						continue
					}
					cell := g.ctx.incCellFor(b, int(re.slot))
					for {
						w := atomic.LoadUint32(cell)
						if w&FlagFrozen == 0 {
							break
						}
						if w&FlagLock != 0 {
							runtime.Gosched()
							continue
						}
						if atomic.CompareAndSwapUint32(cell, w, w&^FlagFrozen) {
							break
						}
					}
				}
			}
			b.reloc.Store(nil)
			b.group.Store(nil)
		}
		for _, t := range g.targets {
			t.targetOf.Store(nil)
		}
		if g.state.Load() != gAborted {
			g.state.Store(gDone)
			for _, t := range g.targets {
				if t.syn != nil && t.validCount.Load() > 0 {
					// The target's bounds were rebuilt exactly by the moves
					// that filled it (doMove widens from an empty state).
					m.stats.SynopsisRebuilds.Add(1)
				}
			}
		}
	}
	for m.ep.Global() < reloc+1 {
		if _, ok := m.ep.TryAdvanceOwner(cs.ep); !ok {
			runtime.Gosched()
		}
	}
	m.stats.ObjectsMoved.Add(int64(moved))
	if moveErr != nil {
		return moved, moveErr
	}
	return moved, context.Cause(cctx)
}

// ownedLimbo lists the limbo slots of emptied block b whose strings the
// graveyard frees with the block: the removed objects' slots. A slot this
// pass moved out of (an rDone entry in b's relocation list) shares its
// strings with the moved copy and keeps them. A sealed block's moves from
// earlier passes are recorded nowhere, so a sealed block frees nothing.
func ownedLimbo(b *Block) []int32 {
	if b.sealed.Load() || len(b.ctx.sch.StringFields) == 0 {
		return nil
	}
	list := b.reloc.Load()
	var slots []int32
	for i := 0; i < b.capacity; i++ {
		if slotDirState(b.SlotDirWord(i)) != slotLimbo {
			continue
		}
		if re := list.find(i); re != nil && re.status.Load() == rDone {
			continue
		}
		slots = append(slots, int32(i))
	}
	return slots
}

// isCompactionCandidate reports whether a pass may take b: an unowned,
// unclaimed block under the occupancy threshold. An empty block is one
// unless it waits on the reclaim queue for reuse (§3.5); the pass buries
// it without a target (planGroups).
func (m *Manager) isCompactionCandidate(b *Block) bool {
	return !b.allocOwned.Load() &&
		b.group.Load() == nil &&
		b.targetOf.Load() == nil &&
		(b.validCount.Load() > 0 || b.sealed.Load() || !b.inReclaimQ.Load()) &&
		b.occupancy() < b.ctx.mgr.cfg.CompactionThreshold
}

// compactionCandidates collects a context's candidate blocks: the
// under-occupied ones, plus — when the context clusters — full blocks
// whose cluster-key bounds have gone stale-wide. The second class is
// what keeps the steady-state pruning guarantee alive under balanced
// churn: upsert-style workloads refill reclaimed slots in place, so
// occupancy never drops below the threshold even as every block's
// bounds creep toward the whole key domain. A block is bounds-stale
// when its span exceeds clusterStaleFactor times its fair share of the
// occupied domain (domain span scaled by the block's fraction of the
// live rows) — a rewrite-invariant test: freshly dealt quantile slices
// sit at roughly one fair share and are left alone, so a quiescent
// clustered heap plans no work.
func (m *Manager) compactionCandidates(ctx *Context, blocks []*Block) []*Block {
	slot := ctx.clusterKeySlot()
	var domain float64
	var totalValid int64
	if slot >= 0 {
		var glo, ghi int64
		for _, b := range blocks {
			if b.syn == nil || b.validCount.Load() == 0 {
				continue
			}
			lo, hi, ok := b.syn[slot].bounds()
			if !ok {
				continue
			}
			if totalValid == 0 || lo < glo {
				glo = lo
			}
			if totalValid == 0 || hi > ghi {
				ghi = hi
			}
			totalValid += int64(b.validCount.Load())
		}
		domain = float64(ghi) - float64(glo)
	}
	var cands []*Block
	for _, b := range blocks {
		if m.isCompactionCandidate(b) ||
			(slot >= 0 && m.clusterStale(b, slot, domain, totalValid)) {
			cands = append(cands, b)
		}
	}
	return cands
}

// clusterStale reports whether a block's cluster-key bounds span more
// than clusterStaleFactor times its fair share of the context's
// occupied key domain. Factor slack absorbs non-uniform key densities:
// sparse-region blocks legitimately span a few fair shares, and
// flagging them would re-plan converged heaps forever.
func (m *Manager) clusterStale(b *Block, slot int, domain float64, totalValid int64) bool {
	if domain <= 0 || totalValid == 0 || b.syn == nil {
		return false
	}
	if b.allocOwned.Load() || b.group.Load() != nil || b.targetOf.Load() != nil {
		return false
	}
	valid := int64(b.validCount.Load())
	if valid == 0 {
		return false
	}
	lo, hi, ok := b.syn[slot].bounds()
	if !ok {
		return false
	}
	return float64(hi)-float64(lo) > clusterStaleFactor*domain*float64(valid)/float64(totalValid)
}

// planGroups selects candidate blocks per context and packs them into
// groups whose combined live objects fit one fresh target block. The
// default packing is size-sorted (first-fit decreasing on valid-byte
// count): candidates sort fullest-first and each lands in the first
// group bin with room, so targets pack fuller, fewer groups form for the
// same reclaimable bytes, and the parallel moving phase gets evenly
// sized group work. PackCluster sorts candidates
// by their cluster-key bound ranges instead and packs key-adjacent —
// targets then cover one narrow key range each, which is what turns
// churn-staled synopsis pruning back into a steady-state guarantee.
// Empty candidates skip the packing: one target-less burial group per
// context takes them, and the pass buries them like any emptied source.
// The argument that a stale reference never reads a released block is
// the compacted-out one: external references fail at the indirection
// entry's incarnation (RowDirect mirrors it there) without touching the
// block, and in RowDirect fixupDirectPointers nulls every in-object
// pointer into the block while it is still mapped — none is a
// tombstone, since every object in it was removed, not moved.
// Each claimed block uses the Dekker protocol that pairs with
// takeReclaimable: store the group pointer first, then re-check
// allocation ownership; back off if a session owns the block.
func (m *Manager) planGroups() []*CompactionGroup {
	var groups []*CompactionGroup
	claim := func(ctx *Context, blocks []*Block) *CompactionGroup {
		g := &CompactionGroup{ctx: ctx}
		for _, b := range blocks {
			// Claim: group first, ownership check second.
			b.group.Store(g)
			if b.allocOwned.Load() {
				b.group.Store(nil)
				continue
			}
			g.blocks = append(g.blocks, b)
		}
		return g
	}
	for _, ctx := range m.Contexts() {
		var cands, empty []*Block
		for _, b := range m.compactionCandidates(ctx, ctx.SnapshotBlocks()) {
			if b.validCount.Load() == 0 {
				empty = append(empty, b)
			} else {
				cands = append(cands, b)
			}
		}
		if g := claim(ctx, empty); len(g.blocks) > 0 {
			groups = append(groups, g)
		}
		if len(cands) < 2 {
			continue
		}
		type bin struct {
			blocks []*Block
			valid  int
		}
		var bins []*bin
		// greedyAdjacent packs cands in their current order: one open bin,
		// closed (never revisited) on overflow. PackCluster runs it over
		// the key-sorted order with a multi-target span, where neighbors
		// hold adjacent key ranges and belong in one sort scope.
		greedyAdjacent := func(capacity int) {
			var cur *bin
			for _, b := range cands {
				v := int(b.validCount.Load())
				if cur != nil && cur.valid+v > capacity {
					bins = append(bins, cur)
					cur = nil
				}
				if cur == nil {
					cur = &bin{}
				}
				cur.blocks = append(cur.blocks, b)
				cur.valid += v
			}
			if cur != nil {
				bins = append(bins, cur)
			}
		}
		mode := m.cfg.CompactionPacking
		if mode == PackCluster && ctx.clusterKeySlot() < 0 {
			mode = PackSize // no cluster key registered: nothing to sort on
		}
		switch mode {
		case PackCluster:
			// Sort candidates by their cluster-column bounds (stale-but-
			// sound: a block's range covers every live key it holds), then
			// pack key-adjacent runs into multi-target sort scopes. Bounds
			// cannot be empty here — a candidate has validCount > 0, and
			// every published row widened them — but an empty pair sorts
			// last and stays sound anyway. Churn staleness makes the bound
			// sort noisy; the redistribution across clusterGroupSpan
			// targets is what restores tight slices regardless.
			slot := ctx.clusterKeySlot()
			key := func(b *Block) (int64, int64) {
				if lo, hi, ok := b.syn[slot].bounds(); ok {
					return lo, hi
				}
				return math.MaxInt64, math.MaxInt64
			}
			sort.SliceStable(cands, func(i, j int) bool {
				ilo, ihi := key(cands[i])
				jlo, jhi := key(cands[j])
				if ilo != jlo {
					return ilo < jlo
				}
				return ihi < jhi
			})
			greedyAdjacent(clusterGroupSpan * ctx.geo.capacity)
		default: // PackSize
			// Valid-byte count is validCount × slot stride; the stride is
			// constant within a context, so the valid count orders bytes.
			sort.SliceStable(cands, func(i, j int) bool {
				return cands[i].validCount.Load() > cands[j].validCount.Load()
			})
			for _, b := range cands {
				v := int(b.validCount.Load())
				placed := false
				for _, bn := range bins {
					if bn.valid+v <= ctx.geo.capacity {
						bn.blocks = append(bn.blocks, b)
						bn.valid += v
						placed = true
						break
					}
				}
				if !placed {
					bins = append(bins, &bin{blocks: []*Block{b}, valid: v})
				}
			}
		}
		for _, bn := range bins {
			if len(bn.blocks) < 2 {
				continue // a singleton reclaims nothing; leave it unclaimed
			}
			g := claim(ctx, bn.blocks)
			if len(g.blocks) >= 2 {
				// One target per capacity's worth of live rows (exactly
				// one outside PackCluster — the bin capacity enforces
				// it). Targets force-charge the budget: compaction is
				// how the budget reclaims, so it must never starve
				// itself.
				valid := 0
				for _, b := range g.blocks {
					valid += int(b.validCount.Load())
				}
				nt := (valid + ctx.geo.capacity - 1) / ctx.geo.capacity
				if nt < 1 {
					nt = 1
				}
				ok := true
				for i := 0; i < nt; i++ {
					target, err := newCompactionTargetBlock(ctx)
					if err != nil {
						ok = false
						break
					}
					g.targets = append(g.targets, target)
					target.targetOf.Store(g)
					ctx.appendBlock(target)
				}
				if ok {
					groups = append(groups, g)
					continue
				}
				// Out of memory mid-way: the created targets stay in the
				// context as ordinary empty blocks, only their target
				// claim is dropped.
				for _, t := range g.targets {
					t.targetOf.Store(nil)
				}
			}
			// Too small after ownership back-offs (or no memory for a
			// target): release the claims.
			for _, b := range g.blocks {
				b.group.Store(nil)
			}
		}
	}
	return groups
}

// freezeGroup builds each block's relocation list and freezes the
// scheduled objects (§5.1, freezing epoch). Target slots are assigned
// sequentially in the target block; under a registered cluster key
// (PackCluster) the sequence follows the cluster column's key order
// instead of block/slot order, so the target comes out physically
// key-sorted and a capacity cutoff drops the extreme keys — the rebuilt
// bounds stay as tight as the group allows. The freeze protocol itself
// is identical either way: publish each block's list, then CAS-freeze
// exactly the scheduled incarnations.
func (m *Manager) freezeGroup(g *CompactionGroup) {
	if len(g.targets) == 0 {
		// A burial group: its blocks hold no valid slot, so nothing is
		// scheduled; empty lists keep the phase protocol uniform.
		for _, b := range g.blocks {
			b.reloc.Store(&relocList{bySlot: make([]int32, b.capacity)})
		}
		return
	}
	type sched struct {
		blk  int // index into g.blocks
		slot int32
		inc  uint32
		key  int64
	}
	clusterSlot := g.ctx.clusterKeySlot()
	if g.targets[0].syn == nil {
		clusterSlot = -1 // no bounds to rebuild; key order buys nothing
	}
	// Targets share one geometry; the group's room is their sum.
	tcap := g.targets[0].capacity
	capTotal := len(g.targets) * tcap
	var pending []sched
	for bi, b := range g.blocks {
		if b.allocOwned.Load() {
			panic("mem: freezing a session-owned block (claim protocol violated)")
		}
		for slot := 0; slot < b.capacity; slot++ {
			if slotDirState(b.SlotDirWord(slot)) != slotValid {
				continue
			}
			if clusterSlot < 0 && len(pending) >= capTotal {
				break
			}
			cell := g.ctx.incCellFor(b, slot)
			w := atomic.LoadUint32(cell)
			if w&FlagMask != 0 {
				continue // mid-transition; leave this slot alone
			}
			s := sched{blk: bi, slot: int32(slot), inc: w}
			if clusterSlot >= 0 {
				// Safe to read the field: the slot is valid and unfrozen,
				// removals never touch field bytes, and publishes complete
				// their writes before the directory flips to valid.
				s.key = synKey(b, slot, g.ctx.syn.fields[clusterSlot])
			}
			pending = append(pending, s)
		}
	}
	if clusterSlot >= 0 {
		// Key order decides both the target layout and — when the group
		// overflows the target — which rows stay behind (the highest
		// keys). Stable sort keeps block/slot order within equal keys.
		sort.SliceStable(pending, func(i, j int) bool {
			return pending[i].key < pending[j].key
		})
		if len(pending) > capTotal {
			pending = pending[:capTotal]
		}
	}
	lists := make([]*relocList, len(g.blocks))
	for bi, b := range g.blocks {
		lists[bi] = &relocList{bySlot: make([]int32, b.capacity)}
	}
	for next, s := range pending {
		b, list := g.blocks[s.blk], lists[s.blk]
		// Deal the (key-ordered, under PackCluster) sequence into
		// consecutive targets: target i takes rows [i*tcap, (i+1)*tcap),
		// i.e. one key-quantile slice of the group.
		list.entries = append(list.entries, relocEntry{
			slot:   s.slot,
			toSlot: int32(next % tcap),
			inc:    s.inc,
			toBlk:  g.targets[next/tcap],
			entry:  b.backEntry(int(s.slot)),
		})
		list.bySlot[s.slot] = int32(len(list.entries))
	}
	for bi, b := range g.blocks {
		list := lists[bi]
		// Publish the list before setting any frozen bit: readers that
		// observe a frozen incarnation resolve it through this list.
		b.reloc.Store(list)
		for i := range list.entries {
			re := &list.entries[i]
			cell := g.ctx.incCellFor(b, int(re.slot))
			// Freeze exactly the scheduled incarnation; if the object
			// was removed (or replaced) meanwhile, the CAS fails and
			// the slot is dropped from this compaction.
			if !atomic.CompareAndSwapUint32(cell, re.inc, re.inc|FlagFrozen) {
				re.status.Store(rSkipped)
			}
		}
	}
}

func (m *Manager) waitAllAtLeast(e uint64, cs *Session, timeout time.Duration, done <-chan struct{}) bool {
	deadline := time.Now().Add(timeout)
	for !m.ep.AllAtLeast(e, cs.ep) {
		if done != nil {
			select {
			case <-done:
				return false
			default:
			}
		}
		if time.Now().After(deadline) {
			return false
		}
		runtime.Gosched()
	}
	return true
}

// pinWaitTimeout bounds how long the compactor waits for a compaction
// group's query pins to drain before skipping the group (§5.2: "bails
// out ... after waiting for a predefined amount of time for the read
// lock to be released").
const pinWaitTimeout = 10 * time.Millisecond

// moveGroup relocates one group: declare the moving intent, drain query
// pins (with the paper's bail-out timeout), move every scheduled object,
// and retry relocations that readers failed during the waiting phase
// ("it extends compaction by one additional epoch to try all unsuccessful
// relocations again", §5.1 — here a bounded retry loop inside the moving
// phase, during which helpers co-operate rather than bail).
func (m *Manager) moveGroup(g *CompactionGroup) (int, bool) {
	// Declare moving before checking pins: an enumerator pins and then
	// checks the state, so this ordering closes the pin/move race.
	g.state.Store(gMoving)
	deadline := time.Now().Add(pinWaitTimeout)
	for g.pins.Load() != 0 {
		if time.Now().After(deadline) {
			m.abortGroup(g)
			return 0, false
		}
		runtime.Gosched()
	}
	moved := 0
	for round := 0; round < 3; round++ {
		pending := 0
		for _, b := range g.blocks {
			list := b.reloc.Load()
			for i := range list.entries {
				did, open := m.moveEntry(g.ctx, b, &list.entries[i])
				if did {
					moved++
				} else if open {
					pending++
				}
			}
		}
		if pending == 0 {
			break
		}
	}
	return moved, true
}

// moveGroups drives the moving phase over every planned group. With one
// worker it is exactly the serial pass. With more, workers claim whole
// groups from an atomic work-stealing cursor, so independent groups (and
// independent contexts) move concurrently while each group's own
// pin-drain/retry/abort protocol runs single-owner on the worker that
// claimed it — concurrent helpers remain safe exactly as they are for
// the serial compactor, via moveOne's per-slot CAS locking. Extra
// workers run on sessions leased from the manager's session pool; the
// coordinator goroutine participates as worker zero, and a failed lease
// degrades to fewer workers rather than failing the pass.
func (m *Manager) moveGroups(groups []*CompactionGroup, workers int, done <-chan struct{}) (int, error) {
	var firstErr atomic.Pointer[error]
	// runGroup moves one claimed group under the robustness contract.
	// Cancellation observed at the claim aborts the group — safe exactly
	// there, before its first object moves; once moving, the claim owner
	// finishes it (aborting a half-moved group would strand objects). A
	// panic mid-group is recovered and recorded; the group's remaining
	// relocations stay resolvable by the cooperative helper protocol
	// (enumerators help, the post-phase sweep unfreezes leftovers), so
	// one poisoned group never kills the pass or the process.
	runGroup := func(g *CompactionGroup) (moved int) {
		if done != nil {
			select {
			case <-done:
				if g.state.Load() < gMoving {
					m.abortGroup(g)
				}
				return 0
			default:
			}
		}
		defer func() {
			if r := recover(); r != nil {
				err := recoverToError(r)
				firstErr.CompareAndSwap(nil, &err)
			}
		}()
		fault.Point(fault.PointCompactGroup)
		n, _ := m.moveGroup(g)
		return n
	}
	moveErr := func() error {
		if p := firstErr.Load(); p != nil {
			return *p
		}
		return nil
	}
	if workers > len(groups) {
		workers = len(groups)
	}
	if workers <= 1 {
		moved := 0
		for _, g := range groups {
			moved += runGroup(g)
		}
		return moved, moveErr()
	}
	var cursor atomic.Int64
	counts := make([]int64, workers)
	run := func(w int) {
		for {
			i := int(cursor.Add(1)) - 1
			if i >= len(groups) {
				return
			}
			counts[w] += int64(runGroup(groups[i]))
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		ws, err := m.LeaseSession()
		if err != nil {
			break // epoch slots exhausted: proceed with fewer workers
		}
		wg.Add(1)
		go func(w int, ws *Session) {
			defer wg.Done()
			defer m.ReturnSession(ws)
			// The critical section publishes the worker at the relocation
			// epoch; it exits before the coordinator closes the epoch, so
			// the final gated advance never waits on a move worker.
			ws.Enter()
			defer ws.Exit()
			run(w)
		}(w, ws)
	}
	run(0)
	wg.Wait()
	moved := 0
	for _, c := range counts {
		moved += int(c)
	}
	return moved, moveErr()
}

// helpGroup moves every resolvable scheduled relocation of g on behalf of
// an enumerator that found the group in its moving phase (§5.2). It
// returns true when no relocation remains unresolved — the group's
// post-relocation state is then complete and safe to enumerate even
// before the compactor marks the group done.
func (m *Manager) helpGroup(g *CompactionGroup) bool {
	resolved := true
	helped := 0
	for _, b := range g.blocks {
		list := b.reloc.Load()
		if list == nil {
			continue // aborted concurrently; the caller's state check decides
		}
		for i := range list.entries {
			did, open := m.moveEntry(g.ctx, b, &list.entries[i])
			if did {
				helped++
			} else if open {
				resolved = false
			}
		}
	}
	if helped > 0 {
		m.stats.RelocHelped.Add(int64(helped))
	}
	return resolved
}

// abortGroup abandons a group: unfreeze everything not yet moved and put
// the blocks back in circulation. The compactor aborts only before it
// moves anything, but a helper may already have moved objects; their
// source blocks are sealed (Block.sealed).
func (m *Manager) abortGroup(g *CompactionGroup) {
	for _, b := range g.blocks {
		list := b.reloc.Load()
		if list == nil {
			continue
		}
		for i := range list.entries {
			re := &list.entries[i]
			if re.status.Load() != rPending {
				continue
			}
			cell := g.ctx.incCellFor(b, int(re.slot))
			for {
				w := atomic.LoadUint32(cell)
				if w&FlagFrozen == 0 {
					break
				}
				if w&FlagLock != 0 {
					runtime.Gosched()
					continue
				}
				if atomic.CompareAndSwapUint32(cell, w, w&IncMask) {
					break
				}
			}
			// A helper may have moved the object meanwhile: keep rDone.
			re.status.CompareAndSwap(rPending, rSkipped)
		}
		if list.anyMoved() {
			b.sealed.Store(true)
		}
		b.reloc.Store(nil)
		b.group.Store(nil)
	}
	for _, t := range g.targets {
		t.targetOf.Store(nil)
	}
	g.state.Store(gAborted)
	m.stats.GroupsAborted.Add(1)
}

func (m *Manager) abortRun(groups []*CompactionGroup) {
	for _, g := range groups {
		if g.state.Load() < gMoving {
			m.abortGroup(g)
		}
	}
	m.movingPhase.Store(false)
	m.relocEpoch.Store(0)
	for _, g := range groups {
		for _, t := range g.targets {
			t.targetOf.Store(nil)
		}
	}
}

// moveEntry makes one attempt at a scheduled relocation, for the
// compactor's retry rounds and for helping enumerators alike. A pending
// entry moves. A failed one (bailed out by a reader in the waiting phase)
// is re-frozen and retried: in the moving phase readers help instead of
// bailing, so this converges, and the CAS against the scheduled
// incarnation guarantees a bailed object that was removed meanwhile is
// never rescheduled. It reports whether this call moved the object and
// whether the relocation is still unresolved.
func (m *Manager) moveEntry(c *Context, b *Block, re *relocEntry) (moved, open bool) {
	switch re.status.Load() {
	case rPending:
	case rFailed:
		cell := c.incCellFor(b, int(re.slot))
		if !atomic.CompareAndSwapUint32(cell, re.inc, re.inc|FlagFrozen) {
			if atomic.LoadUint32(cell)&IncMask != re.inc {
				re.status.Store(rSkipped) // removed meanwhile
				return false, false
			}
			return false, true
		}
		re.status.Store(rPending)
	default:
		return false, false
	}
	if m.moveOne(c, b, re) {
		return true, false
	}
	st := re.status.Load()
	return false, st == rPending || st == rFailed
}

// moveOne locks and relocates a single scheduled object (§5.1, Figure 4).
// It is also the helper path executed by readers in the moving phase
// (case c of dereference). Returns true if this call performed the move.
func (m *Manager) moveOne(ctx *Context, b *Block, re *relocEntry) bool {
	cell := ctx.incCellFor(b, int(re.slot))
	for {
		if st := re.status.Load(); st != rPending {
			return false
		}
		w := atomic.LoadUint32(cell)
		if w&IncMask != re.inc {
			// The object was removed (incarnation bumped): this
			// relocation is permanently disarmed.
			re.status.Store(rSkipped)
			return false
		}
		if w&FlagFrozen == 0 {
			// Resolved elsewhere: a reader bailed it out (status
			// rFailed) or another mover finished it (rDone); either
			// way the status tells the caller what happened.
			return false
		}
		if w&FlagLock != 0 {
			runtime.Gosched()
			continue
		}
		// Lock exactly the scheduled incarnation+frozen word.
		if !atomic.CompareAndSwapUint32(cell, re.inc|FlagFrozen, re.inc|FlagFrozen|FlagLock) {
			continue
		}
		// Relocation lock held: the incarnation is pinned (removers CAS
		// against a clean word and will retry against the lock), so the
		// slot is provably still valid.
		m.doMove(ctx, b, re, re.inc|FlagFrozen)
		return true
	}
}

func (m *Manager) doMove(ctx *Context, b *Block, re *relocEntry, w uint32) {
	src, dst := int(re.slot), int(re.toSlot)
	to := re.toBlk
	if ctx.layout == Columnar {
		for i := range ctx.sch.Fields {
			f := &ctx.sch.Fields[i]
			sz := f.Kind.Size()
			copyBytes(to.FieldPtr(dst, f), b.FieldPtr(src, f), sz)
		}
	} else {
		copyBytes(to.SlotData(dst), b.SlotData(src), ctx.sch.Size)
	}
	to.setBackEntry(dst, re.entry)
	// Widen the target's synopses before publishing the slot. Targets
	// start with empty bounds and are filled only by moves, so when the
	// group completes the target's bounds are the exact min/max over its
	// rows — compaction is the bounds-tightening point (synopsis.go).
	ctx.widenSynopses(to, dst)
	to.storeSlotDir(dst, packSlotDir(slotValid, 0))
	to.validCount.Add(1)
	// Atomically redirect the indirection entry ("Atomically updating
	// the pointer in the indirection table suffices", §5.1).
	if ctx.layout == Columnar {
		storePayload(re.entry, packColumnar(to.id, dst))
	} else {
		storePayload(re.entry, uint64(uintptr(to.SlotData(dst))))
	}
	g := m.ep.Global()
	b.storeSlotDir(src, packSlotDir(slotLimbo, g))
	b.validCount.Add(-1)
	b.limboCount.Add(1)

	clean := w & IncMask
	if ctx.layout == RowDirect {
		// New slot carries the incarnation; the old slot becomes a
		// forwarding tombstone in the same store that drops the frozen
		// and lock bits (§6).
		atomic.StoreUint32(to.slotHeaderPtr(dst), clean)
		atomic.StoreUint32(b.slotHeaderPtr(src), clean|FlagForward)
	} else {
		atomic.StoreUint32(entryIncPtr(re.entry), clean)
	}
	re.status.Store(rDone)
}

// bailOutRelocation implements dereference case (b): the reader is in the
// waiting phase, cannot read a possibly-moving object and cannot move it
// either, so it fails the relocation (§5.1).
func (c *Context) bailOutRelocation(blk *Block, slot int, cell *uint32) {
	re := blk.reloc.Load().find(slot)
	if re == nil {
		// A frozen bit with no scheduled relocation is a leftover from
		// a completed or aborted compaction (lists are published before
		// any bit is set, so an active freeze always has an entry).
		// Nothing will ever move this object; clear the bit so readers
		// and removers can proceed.
		for {
			w := atomic.LoadUint32(cell)
			if w&FlagFrozen == 0 {
				return
			}
			if w&FlagLock != 0 {
				runtime.Gosched()
				continue
			}
			if atomic.CompareAndSwapUint32(cell, w, w&^FlagFrozen) {
				return
			}
		}
	}
	for {
		w := atomic.LoadUint32(cell)
		if w&FlagFrozen == 0 {
			return // already resolved
		}
		if w&FlagLock != 0 {
			runtime.Gosched()
			continue
		}
		if atomic.CompareAndSwapUint32(cell, w, w|FlagLock) {
			re.status.Store(rFailed)
			atomic.StoreUint32(cell, w&IncMask)
			c.mgr.stats.RelocBailouts.Add(1)
			return
		}
	}
}

// helpRelocate implements dereference case (c): the reader helps the
// compaction thread move the object, then proceeds (§5.1).
func (c *Context) helpRelocate(blk *Block, slot int, cell *uint32) {
	re := blk.reloc.Load().find(slot)
	if re == nil {
		runtime.Gosched()
		return
	}
	if c.mgr.moveOne(c, blk, re) {
		c.mgr.stats.RelocHelped.Add(1)
	}
}

// fixupDirectPointers rewrites every direct in-object pointer that leads
// into a compacted block of target context c (§6): sources are known
// statically (RegisterRefEdge), and a hash probe on the block base avoids
// chasing pointers into untouched blocks.
func (m *Manager) fixupDirectPointers(c *Context, bases map[uintptr]bool) {
	mask := uintptr(m.cfg.BlockSize - 1)
	for _, edge := range c.edges() {
		f := &edge.src.sch.Fields[edge.field]
		for _, sb := range edge.src.SnapshotBlocks() {
			for slot := 0; slot < sb.capacity; slot++ {
				if slotDirState(sb.SlotDirWord(slot)) != slotValid {
					continue
				}
				fp := sb.FieldPtr(slot, f)
				addrWord := (*uint64)(fp)
				a := atomic.LoadUint64(addrWord)
				if a == 0 || !bases[uintptr(a)&^mask] {
					continue
				}
				oldBlk := m.blockFromAddr(payloadAddr(a))
				if oldBlk == nil {
					continue
				}
				oslot := oldBlk.slotIndexFromData(payloadAddr(a))
				hw := atomic.LoadUint32(oldBlk.slotHeaderPtr(oslot))
				inc := atomic.LoadUint32((*uint32)(unsafe.Add(fp, 8)))
				if hw&FlagForward == 0 || hw&IncMask != inc {
					// Not a tombstone for this reference: the object was
					// removed rather than relocated. The block is about
					// to be unmapped, so null the pointer out now — a
					// later dereference of a dangling address could not
					// even reach the incarnation check. CAS keeps a
					// racing writer's fresh assignment intact.
					atomic.CompareAndSwapUint64(addrWord, a, 0)
					continue
				}
				e := oldBlk.backEntry(oslot)
				atomic.StoreUint64(addrWord, loadPayload(e))
			}
		}
	}
}

func copyBytes(dst, src unsafe.Pointer, n uintptr) {
	copy(unsafe.Slice((*byte)(dst), n), unsafe.Slice((*byte)(src), n))
}
