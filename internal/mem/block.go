package mem

import (
	"fmt"
	"sync/atomic"
	"unsafe"

	"repro/internal/fault"
	"repro/internal/offheap"
	"repro/internal/schema"
)

// Slot directory states (§3.2): each slot is free (never used), valid
// (holds object data), or limbo (freed, awaiting reclamation). Retired is
// this implementation's overflow state: a slot whose incarnation counter
// reached MaxInc is never reused (§3.1 handles overflow by taking slots
// out of circulation until a background scan clears stale references; we
// retire them permanently and account for them in tests).
const (
	slotFree uint32 = iota
	slotValid
	slotLimbo
	slotRetired

	slotStateMask uint32 = 3
	slotEpochBits        = 30
	slotEpochMask uint32 = 1<<slotEpochBits - 1
)

// packSlotDir packs a state and a removal epoch into a 32-bit slot
// directory entry ("the state of each slot and further state-related
// information (for a total of 32 bits)", §3.2).
func packSlotDir(state uint32, epoch uint64) uint32 {
	return state | uint32(epoch&uint64(slotEpochMask))<<2
}

func slotDirState(w uint32) uint32 { return w & slotStateMask }
func slotDirEpoch(w uint32) uint32 { return w >> 2 }

// slotEpochRipe reports whether a 30-bit truncated removal epoch is at
// least two epochs old relative to the global epoch, using wraparound-
// safe sequence arithmetic (the real epoch distance is always far below
// 2^29 in any live system).
func slotEpochRipe(removal30 uint32, global uint64) bool {
	delta := (uint32(global) - removal30) & slotEpochMask
	return delta >= 2 && delta < 1<<(slotEpochBits-1)
}

// Block is the Go-side descriptor of one off-heap memory block. The
// off-heap layout is:
//
//	[0,8)    block id (recovered from interior pointers by masking, §3.1)
//	[8,16)   reserved
//	[16,..)  object store (row slots or column segments)
//	         slot directory: capacity × 4 bytes
//	         back-pointers:  capacity × 8 bytes (§3.2)
//
// All block metadata that queries do not touch per-object lives here on
// the Go side; off-heap memory never holds Go pointers.
type Block struct {
	id  uint32
	ctx *Context

	base     unsafe.Pointer
	data     unsafe.Pointer // object store base
	slotDir  unsafe.Pointer // slot directory base
	backPtrs unsafe.Pointer // back-pointer array base
	colOff   []uintptr      // columnar: per-field segment offsets from base

	capacity   int
	slotStride int // row layouts: header + data size
	hdrSize    int // 8 in RowDirect, else 0

	validCount atomic.Int32
	limboCount atomic.Int32

	cursor int // allocation cursor (only the owning session allocates)

	inReclaimQ atomic.Bool
	allocOwned atomic.Bool // currently some session's allocation block
	buried     atomic.Bool // emptied by compaction, awaiting release
	// sealed marks a compaction source that keeps objects after some of
	// its slots were moved out (its group aborted after a helper moved,
	// or a relocation never resolved). A moved-from slot must never host
	// a new object: the moved copy shares its string storage, and a
	// direct-mode tombstone header still carries the moved object's
	// incarnation. So a sealed block is never allocated into again; it
	// stays a compaction candidate until a later pass empties and buries
	// it.
	sealed atomic.Bool

	// syn holds the block's per-column min/max synopses, one per column
	// registered on the context (nil otherwise). Widen-only on insert,
	// stale-but-sound on remove, exact on compaction targets
	// (synopsis.go).
	syn []colSynopsis

	group    atomic.Pointer[CompactionGroup] // group emptying this block
	targetOf atomic.Pointer[CompactionGroup] // set on compaction targets
	reloc    atomic.Pointer[relocList]

	region *offheap.Region
}

// geometry computes per-block capacity and layout for a context.
type geometry struct {
	capacity   int
	slotStride int
	hdrSize    int
	dataOff    uintptr
	slotDirOff uintptr
	backOff    uintptr
	colOff     []uintptr // columnar only
}

const blockHeaderBytes = 16

func computeGeometry(blockSize int, sch *schema.Schema, layout Layout) (geometry, error) {
	var g geometry
	switch layout {
	case RowIndirect, Columnar:
		g.hdrSize = 0
	case RowDirect:
		g.hdrSize = 8
	default:
		return g, fmt.Errorf("mem: unknown layout %v", layout)
	}
	if layout == Columnar {
		// Iterate capacity downward until the column segments plus the
		// directories fit.
		var perObj uintptr
		for _, f := range sch.Fields {
			perObj += f.Kind.Size()
		}
		cap := (blockSize - blockHeaderBytes - 64) / (int(perObj) + 12)
		for cap > 0 {
			colOff, total := sch.ColumnarLayout(cap)
			need := blockHeaderBytes + int(total)
			need = (need + 3) &^ 3
			sd := need
			need += cap * 4
			need = (need + 7) &^ 7
			bp := need
			need += cap * 8
			if need <= blockSize {
				g.capacity = cap
				g.dataOff = blockHeaderBytes
				g.slotDirOff = uintptr(sd)
				g.backOff = uintptr(bp)
				g.colOff = make([]uintptr, len(colOff))
				for i, c := range colOff {
					g.colOff[i] = blockHeaderBytes + c
				}
				break
			}
			cap--
		}
		if g.capacity <= 0 {
			return g, fmt.Errorf("mem: block size %d too small for columnar %s", blockSize, sch.Name)
		}
		return g, nil
	}
	stride := g.hdrSize + int(sch.Size)
	cap := (blockSize - blockHeaderBytes - 16) / (stride + 12)
	if cap <= 0 {
		return g, fmt.Errorf("mem: block size %d too small for %s (slot %d bytes)", blockSize, sch.Name, stride)
	}
	g.capacity = cap
	g.slotStride = stride
	g.dataOff = blockHeaderBytes
	sd := blockHeaderBytes + cap*stride
	sd = (sd + 3) &^ 3
	g.slotDirOff = uintptr(sd)
	bp := sd + cap*4
	bp = (bp + 7) &^ 7
	g.backOff = uintptr(bp)
	if bp+cap*8 > blockSize {
		return g, fmt.Errorf("mem: geometry overflow for %s", sch.Name)
	}
	return g, nil
}

// newBlock allocates and registers a block for the context, charging the
// manager's memory budget (backpressuring, then failing with
// ErrBudgetExceeded when reclamation cannot make room).
func newBlock(ctx *Context) (*Block, error) {
	return newBlockBudgeted(ctx, false)
}

// newCompactionTargetBlock allocates a block for a compaction group's
// target, force-charging the budget: the target is the reclamation
// vehicle itself (it frees at least two source blocks), so refusing it
// under pressure would deadlock the budget against its own remedy.
func newCompactionTargetBlock(ctx *Context) (*Block, error) {
	return newBlockBudgeted(ctx, true)
}

func newBlockBudgeted(ctx *Context, forced bool) (*Block, error) {
	m := ctx.mgr
	if err := fault.Check(fault.PointAllocBlock); err != nil {
		return nil, err
	}
	bs := int64(m.cfg.BlockSize)
	if forced {
		m.governor.forceReserve(bs)
	} else if err := m.governor.reserveBlock(bs); err != nil {
		return nil, err
	}
	r, err := m.alloc.Alloc(m.cfg.BlockSize, m.cfg.BlockSize)
	if err != nil {
		m.governor.release(bs)
		return nil, err
	}
	g := ctx.geo
	b := &Block{
		ctx:        ctx,
		base:       r.Base(),
		data:       unsafe.Add(r.Base(), g.dataOff),
		slotDir:    unsafe.Add(r.Base(), g.slotDirOff),
		backPtrs:   unsafe.Add(r.Base(), g.backOff),
		capacity:   g.capacity,
		slotStride: g.slotStride,
		hdrSize:    g.hdrSize,
		region:     r,
		syn:        ctx.newBlockSynopses(),
	}
	if g.colOff != nil {
		b.colOff = make([]uintptr, len(g.colOff))
		for i, c := range g.colOff {
			b.colOff[i] = c
		}
	}
	m.registerBlock(b)
	*(*uint64)(b.base) = uint64(b.id)
	return b, nil
}

// ID returns the block's registry id.
func (b *Block) ID() uint32 { return b.id }

// Capacity returns the number of slots in the block.
func (b *Block) Capacity() int { return b.capacity }

// Context returns the owning memory context.
func (b *Block) Context() *Context { return b.ctx }

// Valid returns the number of valid slots.
func (b *Block) Valid() int { return int(b.validCount.Load()) }

// Limbo returns the number of limbo slots.
func (b *Block) Limbo() int { return int(b.limboCount.Load()) }

// slotDirPtr returns the address of slot i's directory entry.
func (b *Block) slotDirPtr(i int) *uint32 {
	return (*uint32)(unsafe.Add(b.slotDir, uintptr(i)*4))
}

// SlotDirWord atomically loads slot i's directory entry. Compiled query
// code iterates the directory through this ("it is fairly cheap to
// iterate over the slot directory to check for valid slots", §4).
func (b *Block) SlotDirWord(i int) uint32 {
	return atomic.LoadUint32(b.slotDirPtr(i))
}

// SlotIsValid reports whether slot i currently holds an object.
func (b *Block) SlotIsValid(i int) bool {
	return slotDirState(b.SlotDirWord(i)) == slotValid
}

func (b *Block) storeSlotDir(i int, w uint32) {
	atomic.StoreUint32(b.slotDirPtr(i), w)
}

func (b *Block) casSlotDir(i int, old, new uint32) bool {
	return atomic.CompareAndSwapUint32(b.slotDirPtr(i), old, new)
}

// backPtrPtr returns the address of slot i's back-pointer cell.
func (b *Block) backPtrPtr(i int) *uint64 {
	return (*uint64)(unsafe.Add(b.backPtrs, uintptr(i)*8))
}

// backEntry returns the indirection entry recorded for slot i (§3.2:
// "back-pointers ... store a pointer to the object's indirection table
// entry").
func (b *Block) backEntry(i int) entryRef {
	return payloadAddr(atomic.LoadUint64(b.backPtrPtr(i)))
}

func (b *Block) setBackEntry(i int, e entryRef) {
	atomic.StoreUint64(b.backPtrPtr(i), uint64(uintptr(e)))
}

// SlotData returns the address of slot i's object data (row layouts).
func (b *Block) SlotData(i int) unsafe.Pointer {
	return unsafe.Add(b.data, uintptr(i)*uintptr(b.slotStride)+uintptr(b.hdrSize))
}

// slotHeaderPtr returns the slot's incarnation word (RowDirect only, §6).
func (b *Block) slotHeaderPtr(i int) *uint32 {
	return (*uint32)(unsafe.Add(b.data, uintptr(i)*uintptr(b.slotStride)))
}

// slotIndexFromData recovers a slot index from a slot-data address.
func (b *Block) slotIndexFromData(p unsafe.Pointer) int {
	off := uintptr(p) - uintptr(b.data) - uintptr(b.hdrSize)
	return int(off / uintptr(b.slotStride))
}

// Col returns the block's column view of field f: slot i's value of f
// lives at base + i*stride under every layout. Row layouts return the
// field's address in slot 0 (past RowDirect's slot header) and the slot
// stride; Columnar returns the column segment's base and the field's
// element size (§4.1). Compiled kernels resolve their columns once per
// block with it and then walk rows with constant strides (§4).
func (b *Block) Col(f *schema.Field) (base unsafe.Pointer, stride uintptr) {
	if b.colOff != nil {
		return unsafe.Add(b.base, b.colOff[f.Index]), f.Kind.Size()
	}
	return unsafe.Add(b.data, uintptr(b.hdrSize)+f.Offset), uintptr(b.slotStride)
}

// FieldPtr returns the address of a field of slot i under the block's
// layout: the general accessor, addressing through the column view.
// Kernels that touch many rows hoist Col out of the row loop instead.
func (b *Block) FieldPtr(i int, f *schema.Field) unsafe.Pointer {
	base, stride := b.Col(f)
	return unsafe.Add(base, uintptr(i)*stride)
}

// blockFromAddr recovers the block owning an off-heap address by masking
// the low bits and reading the block id from the header (§3.1: "We align
// the base address of all blocks to the block size to allow extracting
// the address of the block's header from the object pointer").
func (m *Manager) blockFromAddr(p unsafe.Pointer) *Block {
	base := unsafe.Add(p, -int(uintptr(p)&uintptr(m.cfg.BlockSize-1)))
	id := *(*uint64)(base)
	return m.blockByID(uint32(id))
}

// occupancy returns the valid fraction of the block.
func (b *Block) occupancy() float64 {
	return float64(b.validCount.Load()) / float64(b.capacity)
}
