package mem

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/schema"
)

// Context is a memory context (§3.3): a private set of single-type
// memory blocks serving exactly one collection. Grouping a collection's
// objects in its own blocks is what gives enumeration its spatial
// locality.
type Context struct {
	mgr    *Manager
	id     uint32
	name   string
	sch    *schema.Schema
	layout Layout
	geo    geometry

	mu     sync.RWMutex
	blocks []*Block

	reclaimMu sync.Mutex
	reclaimQ  []reclaimEntry

	strings *stringHeap

	// syn lists the columns carrying per-block min/max synopses
	// (synopsis.go). Registered before the first block under mu; read
	// lock-free afterwards (registration is create-time only).
	syn *synopsisSpec

	// clusterSlot is the synopsis index of the registered cluster key
	// (RegisterClusterKey), or -1. Under PackCluster the compaction
	// planner bins this context's candidates by that column's bounds and
	// the mover relocates group rows in that column's key order.
	clusterSlot atomic.Int32

	// refEdges lists contexts that hold reference fields INTO this
	// context, together with the source field indexes and their encoding.
	// Registered by the collection layer; consumed by the compactor's
	// direct-pointer fix-up scan (§6: "the references between smcs are
	// statically known and the compiler can produce specialized functions
	// that only scan smcs that have direct pointers that may have to be
	// updated") and by the overflow rescue scan (§3.1).
	edgeMu   sync.Mutex
	refEdges []refEdge
}

type refEdge struct {
	src    *Context
	field  int
	direct bool // field stores the §6 direct encoding (RowDirect target)
}

// reclaimEntry queues a block whose limbo fraction crossed the reclaim
// threshold, along with the earliest epoch at which its limbo slots can
// be reused (§3.5: "the earliest timestamp when the block can be
// reclaimed (global epoch plus two)").
type reclaimEntry struct {
	blk   *Block
	ready uint64
}

func newContext(m *Manager, id uint32, name string, sch *schema.Schema, layout Layout) (*Context, error) {
	geo, err := computeGeometry(m.cfg.BlockSize, sch, layout)
	if err != nil {
		return nil, err
	}
	c := &Context{
		mgr:    m,
		id:     id,
		name:   name,
		sch:    sch,
		layout: layout,
		geo:    geo,
	}
	c.clusterSlot.Store(-1)
	c.strings = newStringHeap(m, c)
	return c, nil
}

// Name returns the context's diagnostic name.
func (c *Context) Name() string { return c.name }

// Schema returns the context's object schema.
func (c *Context) Schema() *schema.Schema { return c.sch }

// Layout returns the context's storage layout.
func (c *Context) Layout() Layout { return c.layout }

// Manager returns the owning manager.
func (c *Context) Manager() *Manager { return c.mgr }

// BlockCapacity returns the number of slots per block for this context.
func (c *Context) BlockCapacity() int { return c.geo.capacity }

// RegisterRefEdge declares that src's field fieldIndex holds references
// into this context; direct selects the §6 direct-pointer encoding
// (RowDirect targets). The collection layer registers every bound
// reference field.
func (c *Context) RegisterRefEdge(src *Context, fieldIndex int, direct bool) {
	c.edgeMu.Lock()
	defer c.edgeMu.Unlock()
	for _, e := range c.refEdges {
		if e.src == src && e.field == fieldIndex {
			return
		}
	}
	c.refEdges = append(c.refEdges, refEdge{src: src, field: fieldIndex, direct: direct})
}

func (c *Context) edges() []refEdge {
	c.edgeMu.Lock()
	defer c.edgeMu.Unlock()
	out := make([]refEdge, len(c.refEdges))
	copy(out, c.refEdges)
	return out
}

// appendBlock publishes a block at the end of the enumeration order.
func (c *Context) appendBlock(b *Block) {
	c.mu.Lock()
	c.blocks = append(c.blocks, b)
	c.mu.Unlock()
}

// removeBlocks unlinks the given blocks from the enumeration order.
func (c *Context) removeBlocks(gone map[*Block]bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.blocks[:0]
	for _, b := range c.blocks {
		if !gone[b] {
			out = append(out, b)
		}
	}
	c.blocks = out
}

// SnapshotBlocks returns the current enumeration order. The slice is a
// private copy.
func (c *Context) SnapshotBlocks() []*Block {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Block, len(c.blocks))
	copy(out, c.blocks)
	return out
}

// Blocks returns the number of blocks currently in the context.
func (c *Context) Blocks() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.blocks)
}

// Len returns the number of valid objects across all blocks. O(blocks).
func (c *Context) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := 0
	for _, b := range c.blocks {
		n += int(b.validCount.Load())
	}
	return n
}

// MemoryBytes reports the off-heap bytes held by the context: block
// regions plus string storage. This is the "total memory size" series of
// Figure 6.
func (c *Context) MemoryBytes() int64 {
	c.mu.RLock()
	n := int64(len(c.blocks)) * int64(c.mgr.cfg.BlockSize)
	c.mu.RUnlock()
	return n + c.strings.bytes()
}

// enqueueReclaim adds the block to the reclamation queue if its limbo
// fraction crossed the threshold (§3.5). Blocks currently owned by an
// allocating session are skipped; the owner re-checks on abandon.
func (c *Context) enqueueReclaim(b *Block) { c.queueReusable(b, b.limboCount.Load()) }

// queueReusable adds the block to the reclamation queue when reusable —
// the slots an allocator could claim in it — exceeds ReclaimThreshold of
// its capacity.
func (c *Context) queueReusable(b *Block, reusable int32) {
	if b.allocOwned.Load() || b.inReclaimQ.Load() || b.group.Load() != nil || b.buried.Load() || b.sealed.Load() {
		return
	}
	thresh := int32(float64(b.capacity) * c.mgr.cfg.ReclaimThreshold)
	if reusable <= thresh {
		return
	}
	if !b.inReclaimQ.CompareAndSwap(false, true) {
		return
	}
	ready := c.mgr.ep.Global() + 2
	c.reclaimMu.Lock()
	c.reclaimQ = append(c.reclaimQ, reclaimEntry{blk: b, ready: ready})
	c.reclaimMu.Unlock()
}

// takeReclaimable pops a ready block from the reclamation queue, or
// returns nil along with whether any block is waiting but not yet ripe
// (the allocator then tries to advance the epoch, §3.5).
func (c *Context) takeReclaimable() (b *Block, waiting bool) {
	g := c.mgr.ep.Global()
	c.reclaimMu.Lock()
	defer c.reclaimMu.Unlock()
	i := 0
	for i < len(c.reclaimQ) {
		re := c.reclaimQ[i]
		if re.blk.buried.Load() || re.blk.group.Load() != nil || re.blk.sealed.Load() {
			// The block was emptied (or is being emptied, or was sealed)
			// by a compaction that ran after it was enqueued: the queue
			// entry is dead, never hand the block out.
			re.blk.inReclaimQ.Store(false)
			c.reclaimQ = append(c.reclaimQ[:i], c.reclaimQ[i+1:]...)
			continue
		}
		if re.ready > g {
			i++
			continue
		}
		c.reclaimQ = append(c.reclaimQ[:i], c.reclaimQ[i+1:]...)
		re.blk.inReclaimQ.Store(false)
		// Exclusive claim: the queue can transiently hold duplicate
		// entries for a block (a remover may re-enqueue it between our
		// pop and this claim), so ownership must be a CAS — two
		// sessions allocating into one block would corrupt it.
		if !re.blk.allocOwned.CompareAndSwap(false, true) {
			continue
		}
		// Dekker-style claim against the compaction planner: mark
		// ownership first, then re-check group and burial. The planner
		// does the opposite (set group, then check ownership), so at
		// least one side always observes the other and backs off;
		// otherwise a block could be emptied and unmapped while a
		// session keeps allocating into it.
		if re.blk.group.Load() != nil || re.blk.buried.Load() || re.blk.sealed.Load() {
			re.blk.allocOwned.Store(false)
			continue
		}
		return re.blk, len(c.reclaimQ) > 0
	}
	return nil, len(c.reclaimQ) > 0
}

// releaseAll frees all block and string memory. Called from Manager.Close.
func (c *Context) releaseAll() {
	c.mu.Lock()
	blocks := c.blocks
	c.blocks = nil
	c.mu.Unlock()
	for _, b := range blocks {
		c.mgr.unregisterBlock(b)
		c.mgr.releaseBlockMemory(b)
	}
	c.strings.release()
}

// String renders diagnostics.
func (c *Context) String() string {
	return fmt.Sprintf("ctx %s (%s, %s): %d blocks, %d objects",
		c.name, c.sch.Name, c.layout, c.Blocks(), c.Len())
}
