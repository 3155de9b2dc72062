package mem

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/decimal"
	"repro/internal/schema"
	"repro/internal/types"
)

// Block synopses: per-block, per-column min/max bounds that let scans
// skip whole blocks whose value range cannot intersect a query's
// predicate (classic zone maps, fitted to this codebase's lifecycle).
//
// The maintenance contract is deliberately asymmetric:
//
//   - Insert widens. Publish (and a compaction move landing in a target
//     block) folds the new row's registered column values into the
//     block's bounds with widen-only atomic CAS loops, so concurrent
//     adders never need a lock and bounds only ever grow.
//   - Remove leaves bounds untouched. A deleted row can make bounds
//     loose, never wrong: every live row still lies inside them, so
//     pruning stays sound ("stale but sound").
//   - Compaction rebuilds exactly. A compaction target starts life with
//     empty bounds and is filled exclusively by moves, each widening by
//     the moved row's actual values — so when the moving phase completes,
//     the target's bounds are the exact min/max over its rows. Fragmented
//     collections therefore get tighter bounds as the Maintainer runs.
//
// Values are compared in a per-kind int64 key space (synKey): int32/date
// widen losslessly, int64 is the identity, and decimal saturates its
// 128-bit 1e-4-unit integer into int64. Saturation is monotone
// (non-strictly order-preserving), which is all pruning needs: if a
// predicate interval and a block's key bounds are disjoint, no row in the
// block can satisfy the predicate.

// colSynopsis is one registered column's bounds on one block. Bounds are
// int64 sort keys; min > max is the empty state (no row ever published).
type colSynopsis struct {
	min atomic.Int64
	max atomic.Int64
}

func (cs *colSynopsis) reset() {
	cs.min.Store(math.MaxInt64)
	cs.max.Store(math.MinInt64)
}

// widen folds one key into the bounds (widen-only CAS loops: concurrent
// adders race benignly, the bounds converge to cover every folded key).
func (cs *colSynopsis) widen(k int64) {
	for {
		cur := cs.min.Load()
		if k >= cur || cs.min.CompareAndSwap(cur, k) {
			break
		}
	}
	for {
		cur := cs.max.Load()
		if k <= cur || cs.max.CompareAndSwap(cur, k) {
			break
		}
	}
}

// bounds loads the current bounds; ok is false for the empty state.
func (cs *colSynopsis) bounds() (lo, hi int64, ok bool) {
	lo, hi = cs.min.Load(), cs.max.Load()
	return lo, hi, lo <= hi
}

// synopsisSpec is a context's registered synopsis columns.
type synopsisSpec struct {
	fields []*schema.Field
}

// synopsisKinds lists the field kinds a synopsis can be registered on.
func synopsisKind(k schema.Kind) bool {
	switch k {
	case schema.Int32, schema.Int64, schema.Date, schema.Decimal:
		return true
	}
	return false
}

// RegisterSynopses declares min/max block synopses for the named columns
// (int32, int64, date or decimal). It must be called before the context
// allocates its first block — typically right after collection creation —
// so every block in the context's lifetime carries bounds for every
// registered column. Registering twice replaces nothing: subsequent calls
// append columns not yet registered.
func (c *Context) RegisterSynopses(names ...string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.blocks) > 0 {
		return fmt.Errorf("mem: %s: RegisterSynopses after blocks were allocated", c.name)
	}
	for _, name := range names {
		f, ok := c.sch.Field(name)
		if !ok {
			return fmt.Errorf("mem: %s has no field %q", c.sch.Name, name)
		}
		if !synopsisKind(f.Kind) {
			return fmt.Errorf("mem: %s.%s: synopsis unsupported for %s fields", c.sch.Name, name, f.Kind)
		}
		if c.syn == nil {
			c.syn = &synopsisSpec{}
		}
		dup := false
		for _, g := range c.syn.fields {
			if g.Index == f.Index {
				dup = true
				break
			}
		}
		if !dup {
			c.syn.fields = append(c.syn.fields, f)
		}
	}
	return nil
}

// RegisterClusterKey names one registered synopsis column as the
// context's compaction sort key. Under Config.CompactionPacking ==
// PackCluster, the compaction planner bins this context's candidate
// blocks by the column's bound ranges (key-adjacent blocks share a
// group) and the mover fills each target in key order, so rebuilt
// targets come out with tight, near-disjoint bound ranges. The synopsis
// maintenance contract is untouched: clustering only changes which rows
// land together, never what the bounds may claim. Without PackCluster
// the registration is inert. Registering again replaces the key.
func (c *Context) RegisterClusterKey(name string) error {
	f, ok := c.sch.Field(name)
	if !ok {
		return fmt.Errorf("mem: %s has no field %q", c.sch.Name, name)
	}
	slot := c.synopsisSlot(f)
	if slot < 0 {
		return fmt.Errorf("mem: %s.%s: cluster key needs a registered synopsis (RegisterSynopses first)", c.sch.Name, name)
	}
	c.clusterSlot.Store(int32(slot))
	return nil
}

// clusterKeySlot resolves the synopsis index the compaction planner
// should cluster on, or -1 when clustering is off for this context
// (packing mode not PackCluster, or no registered cluster key).
func (c *Context) clusterKeySlot() int {
	if c.mgr.cfg.CompactionPacking != PackCluster {
		return -1
	}
	return int(c.clusterSlot.Load())
}

// synopsisFootprint estimates the bytes held by per-block synopses
// across all contexts: two 8-byte bounds per registered column per
// block. It is the fourth consumer term in the governor's accounting
// (govern.go) — small next to the heap, but counted so a synopsis-heavy
// schema cannot silently eat the budget.
func (m *Manager) synopsisFootprint() int64 {
	var n int64
	for _, c := range m.Contexts() {
		if c.syn == nil {
			continue
		}
		n += int64(c.Blocks()) * int64(len(c.syn.fields)) * 16
	}
	return n
}

// synopsisSlot resolves a registered column's synopsis index, or -1.
func (c *Context) synopsisSlot(f *schema.Field) int {
	if c.syn == nil {
		return -1
	}
	for i, g := range c.syn.fields {
		if g.Index == f.Index {
			return i
		}
	}
	return -1
}

// newBlockSynopses builds the per-block bounds array for a context (nil
// when no synopses are registered).
func (c *Context) newBlockSynopses() []colSynopsis {
	if c.syn == nil {
		return nil
	}
	syn := make([]colSynopsis, len(c.syn.fields))
	for i := range syn {
		syn[i].reset()
	}
	return syn
}

// widenSynopses folds one slot's registered column values into its
// block's bounds. Called with the slot's field data fully written,
// before the slot directory publishes it: a scanner that observes the
// slot valid was preceded by the widen (the benign exception is the same
// racing-Publish window the empty-block fast path already has — a row
// published while a scan is deciding linearizes after that scan).
func (c *Context) widenSynopses(b *Block, slot int) {
	if b.syn == nil {
		return
	}
	for i, f := range c.syn.fields {
		b.syn[i].widen(synKey(b, slot, f))
	}
}

// synKey reads a slot's field and maps it into the synopsis key space.
func synKey(b *Block, slot int, f *schema.Field) int64 {
	p := b.FieldPtr(slot, f)
	switch f.Kind {
	case schema.Int32, schema.Date:
		return int64(*(*int32)(p))
	case schema.Int64:
		return *(*int64)(p)
	case schema.Decimal:
		return decimalKey(*(*decimal.Dec128)(p))
	}
	panic("mem: synKey on unsupported kind")
}

// decimalKey saturates a 128-bit 1e-4-unit decimal into an int64 sort
// key. The map is monotone non-decreasing over the decimal order, which
// keeps interval pruning sound; TPC-H-scale values (|v| < ~9.2e14) are
// represented exactly.
func decimalKey(d decimal.Dec128) int64 {
	if d.Hi == int64(d.Lo)>>63 {
		return int64(d.Lo)
	}
	if d.Hi < 0 {
		return math.MinInt64
	}
	return math.MaxInt64
}

// ScanPredicate is a conjunction of per-column interval constraints over
// a context's registered synopsis columns, evaluated once per block
// during scan resolution. Pruning is an optimization, never a semantics
// change: queries keep evaluating their full residual predicate per row,
// the synopsis check only removes blocks that provably hold no matching
// row. Build one with Context.Predicate and the *Range methods; a nil
// predicate (or one with no constraints) matches every block.
//
// All intervals are inclusive on both ends; encode one-sided constraints
// with math.MinInt64 / math.MaxInt64 (or the Date/Decimal extremes).
type ScanPredicate struct {
	ctx  *Context
	cons []predCon
}

type predCon struct {
	slot   int   // index into Block.syn
	lo, hi int64 // inclusive key-space interval
	// ks refines the interval with a sorted-range key set (cross-edge
	// semi-join pruning): the block is admitted only when some key-set
	// range intersects its bounds, not merely the envelope [lo, hi].
	ks *KeySetPredicate
}

// KeySetPredicate is a set of int64 synopsis keys produced by an earlier
// pipeline stage (e.g. the key ranges of the order blocks surviving a
// date cut), stored as sorted disjoint inclusive ranges with overlapping
// and adjacent ranges coalesced. Attached to a ScanPredicate via
// InKeySet, it prunes the next stage's blocks across a reference edge: a
// block whose key-column bounds overlap no range provably holds no row
// that can join, so the coordinator never claims it. Like every synopsis
// check it is sound, never exact — kernels keep evaluating the real join
// per row.
//
// The structure is immutable after construction and safe for concurrent
// use by any number of scans.
type KeySetPredicate struct {
	ranges []KeyRange // sorted by Lo, disjoint, non-adjacent
}

// KeyRange is one inclusive interval [Lo, Hi] of synopsis keys; a single
// key k is {k, k}.
type KeyRange struct {
	Lo, Hi int64
}

// NewKeyRangePredicate builds a key-set predicate from the (unsorted,
// possibly overlapping, nested or adjacent) inclusive ranges of a
// completed stage; ranges with Lo > Hi are empty and dropped. It sorts
// and coalesces in place, so the predicate takes ownership of ranges.
// An empty input is valid and matches no block — the stage it came from
// produced nothing, so the next stage has nothing to find.
func NewKeyRangePredicate(ranges []KeyRange) *KeySetPredicate {
	slices.SortFunc(ranges, func(a, b KeyRange) int { return cmp.Compare(a.Lo, b.Lo) })
	out := ranges[:0]
	for _, r := range ranges {
		if r.Lo > r.Hi {
			continue
		}
		if n := len(out); n > 0 {
			last := &out[n-1]
			// Overlapping or adjacent. Test overlap first: when last.Hi
			// is MaxInt64, last.Hi+1 wraps, but r.Lo <= last.Hi holds.
			if r.Lo <= last.Hi || r.Lo == last.Hi+1 {
				last.Hi = max(last.Hi, r.Hi)
				continue
			}
		}
		out = append(out, r)
	}
	return &KeySetPredicate{ranges: out}
}

// Empty reports whether the set holds no keys (matches no block).
func (ks *KeySetPredicate) Empty() bool { return len(ks.ranges) == 0 }

// Overlaps reports whether any range intersects [lo, hi]. O(log ranges):
// binary-search the first range ending at or after lo, then check it
// starts at or before hi.
func (ks *KeySetPredicate) Overlaps(lo, hi int64) bool {
	i := sort.Search(len(ks.ranges), func(i int) bool { return ks.ranges[i].Hi >= lo })
	return i < len(ks.ranges) && ks.ranges[i].Lo <= hi
}

// Contains reports whether k is in the set.
func (ks *KeySetPredicate) Contains(k int64) bool { return ks.Overlaps(k, k) }

// Predicate starts a scan predicate over this context's registered
// synopsis columns.
func (c *Context) Predicate() *ScanPredicate {
	return &ScanPredicate{ctx: c}
}

// addCon appends one interval constraint; the column must be registered
// (panicking otherwise matches the MustField idiom compiled query setup
// code already uses — predicates are built once at query start).
func (p *ScanPredicate) addCon(name string, lo, hi int64) *ScanPredicate {
	f := p.ctx.sch.MustField(name)
	slot := p.ctx.synopsisSlot(f)
	if slot < 0 {
		panic(fmt.Sprintf("mem: %s.%s has no registered synopsis", p.ctx.sch.Name, name))
	}
	p.cons = append(p.cons, predCon{slot: slot, lo: lo, hi: hi})
	return p
}

// Int64Range constrains an int64 column to [lo, hi].
func (p *ScanPredicate) Int64Range(name string, lo, hi int64) *ScanPredicate {
	return p.addCon(name, lo, hi)
}

// Int32Range constrains an int32 column to [lo, hi].
func (p *ScanPredicate) Int32Range(name string, lo, hi int32) *ScanPredicate {
	return p.addCon(name, int64(lo), int64(hi))
}

// DateRange constrains a date column to [lo, hi].
func (p *ScanPredicate) DateRange(name string, lo, hi types.Date) *ScanPredicate {
	return p.addCon(name, int64(lo), int64(hi))
}

// DecimalRange constrains a decimal column to [lo, hi]. The bounds pass
// through the same monotone key map as stored values, so saturated
// extremes stay sound.
func (p *ScanPredicate) DecimalRange(name string, lo, hi decimal.Dec128) *ScanPredicate {
	return p.addCon(name, decimalKey(lo), decimalKey(hi))
}

// InKeySet constrains an int64/int32/date column to a key set produced
// by an earlier pipeline stage (cross-edge semi-join pruning; see
// KeySetPredicate). The interval envelope [first, last] is checked
// first, then the set's ranges. An empty set matches no block: the
// producing stage found nothing, so neither can this one.
func (p *ScanPredicate) InKeySet(name string, ks *KeySetPredicate) *ScanPredicate {
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64) // empty envelope
	if !ks.Empty() {
		lo, hi = ks.ranges[0].Lo, ks.ranges[len(ks.ranges)-1].Hi
	}
	p.addCon(name, lo, hi)
	p.cons[len(p.cons)-1].ks = ks
	return p
}

// matchBlock reports whether the block's synopsis bounds can intersect
// every constraint, and — for the pruning counters — whether the
// decision involved a key-set constraint: on a false return, keySet
// means the failing constraint carried one; on true, it means at least
// one key-set constraint was checked (and overlapped). Blocks with
// empty bounds (no row ever published) never match a constrained
// predicate — the same bag-semantics window as the validCount==0 fast
// path.
func (p *ScanPredicate) matchBlock(b *Block) (ok, keySet bool) {
	if p == nil || len(p.cons) == 0 {
		return true, false
	}
	if b.syn == nil {
		return true, false // context predates registration (cannot happen; stay sound)
	}
	hadKeySet := false
	for i := range p.cons {
		cn := &p.cons[i]
		lo, hi, ok := b.syn[cn.slot].bounds()
		if !ok || hi < cn.lo || lo > cn.hi {
			return false, cn.ks != nil
		}
		if cn.ks != nil {
			if !cn.ks.Overlaps(lo, hi) {
				return false, true
			}
			hadKeySet = true
		}
	}
	return true, hadKeySet
}

// admitBlock is the shared scan-side gate: the empty-block fast path
// plus the synopsis check, with pruning counters maintained only for
// constrained scans (unpredicated scans pay one nil check). Key-set
// pruning keeps its own pair: KeySetPruned counts prunes attributable
// to a key-set constraint (a subset of BlocksPruned), SynopsisOverlap
// counts admitted blocks a key-set constraint overlapped — the residual
// scan work the key set could not remove.
func (p *ScanPredicate) admitBlock(b *Block) bool {
	if b.validCount.Load() == 0 {
		return false
	}
	if p == nil || len(p.cons) == 0 {
		return true
	}
	ok, keySet := p.matchBlock(b)
	if !ok {
		p.ctx.mgr.stats.BlocksPruned.Add(1)
		if keySet {
			p.ctx.mgr.stats.KeySetPruned.Add(1)
		}
		return false
	}
	p.ctx.mgr.stats.BlocksScanned.Add(1)
	if keySet {
		p.ctx.mgr.stats.SynopsisOverlap.Add(1)
	}
	return true
}

// SynopsisBounds exposes a block's bounds for a registered column
// (diagnostics and tests); ok is false when the column is unregistered
// or the bounds are empty.
func (b *Block) SynopsisBounds(name string) (lo, hi int64, ok bool) {
	f, found := b.ctx.sch.Field(name)
	if !found || b.syn == nil {
		return 0, 0, false
	}
	slot := b.ctx.synopsisSlot(f)
	if slot < 0 {
		return 0, 0, false
	}
	return b.syn[slot].bounds()
}
