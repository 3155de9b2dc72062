package mem

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/offheap"
	"repro/internal/types"
)

// stringHeap stores the variable-length string data of a context's
// objects. The paper (§3.1) disallows variable-sized data in object
// slots so slot positions stay constant; strings are "considered part of
// the object; their lifetime matches that of the object" (§2). The heap
// therefore provides explicit alloc/free keyed to object reclamation.
//
// Small strings come from size-class free lists (lock-free Treiber
// stacks) refilled from per-session bump chunks; oversized strings get
// dedicated regions. Each small-string node carries an 8-byte link
// header *in front of* the payload: the link word is only ever accessed
// atomically, and payload copies never overlap it, so free-list traversal
// by a stale popper cannot race with the new owner's payload writes.
type stringHeap struct {
	mgr *Manager
	ctx *Context

	mu     sync.Mutex
	chunks []*offheap.Region
	big    map[uintptr]*offheap.Region

	// classes[i] is a packed Treiber head: address<<16 | tag.
	classes [len(strClasses)]atomic.Uint64

	liveBytes  atomic.Int64
	chunkBytes atomic.Int64
}

var strClasses = [...]int{16, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 2048, 4096}

const (
	strChunkBytes = 1 << 16 // per-session bump chunk
	strBigLimit   = 4096
	strLinkBytes  = 8 // free-list link header preceding each payload
)

// strChunk is a session's private bump allocator for one context.
type strChunk struct {
	cur    unsafe.Pointer
	remain int
}

func newStringHeap(m *Manager, c *Context) *stringHeap {
	return &stringHeap{mgr: m, ctx: c, big: make(map[uintptr]*offheap.Region)}
}

func classFor(n int) int {
	for i, c := range strClasses {
		if n <= c {
			return i
		}
	}
	return -1
}

// allocStr copies s into the heap and returns its packed reference.
func (h *stringHeap) allocStr(sess *Session, s string) (types.StrRef, error) {
	n := len(s)
	if n == 0 {
		return 0, nil
	}
	if n > types.MaxStringLen {
		return 0, errStringTooLong
	}
	var p unsafe.Pointer
	if n > strBigLimit {
		r, err := h.mgr.alloc.Alloc(n, 8)
		if err != nil {
			return 0, err
		}
		h.mu.Lock()
		h.big[uintptr(r.Base())] = r
		h.mu.Unlock()
		p = r.Base()
	} else {
		cls := classFor(n)
		node := h.popClass(cls)
		if node == nil {
			var err error
			node, err = h.bump(sess, strClasses[cls]+strLinkBytes)
			if err != nil {
				return 0, err
			}
		}
		p = unsafe.Add(node, strLinkBytes)
	}
	copy(unsafe.Slice((*byte)(p), n), s)
	h.liveBytes.Add(int64(n))
	return types.PackStrRef(uintptr(p), n), nil
}

// freeStr releases a string's storage. Callers only invoke this when the
// owning slot is reclaimed (two epochs after the object was freed), so no
// reader can still hold the bytes.
func (h *stringHeap) freeStr(sr types.StrRef) {
	n := sr.Len()
	if n == 0 {
		return
	}
	h.liveBytes.Add(-int64(n))
	if n > strBigLimit {
		h.mu.Lock()
		r, ok := h.big[sr.Addr()]
		if ok {
			delete(h.big, sr.Addr())
		}
		h.mu.Unlock()
		if ok {
			_ = h.mgr.alloc.Free(r)
		}
		return
	}
	node := unsafe.Add(types.LaunderAddr(sr.Addr()), -strLinkBytes)
	h.pushClass(classFor(n), node)
}

// popClass pops a node from the class free list.
func (h *stringHeap) popClass(cls int) unsafe.Pointer {
	head := &h.classes[cls]
	for {
		old := head.Load()
		addr := uintptr(old >> 16)
		if addr == 0 {
			return nil
		}
		node := types.LaunderAddr(addr)
		next := atomic.LoadUint64((*uint64)(node)) // packed: nextAddr<<16
		tag := (old + 1) & 0xffff
		if head.CompareAndSwap(old, next&^0xffff|tag) {
			return node
		}
	}
}

// pushClass pushes a node onto the class free list. The node's first
// eight bytes store the next link.
func (h *stringHeap) pushClass(cls int, node unsafe.Pointer) {
	head := &h.classes[cls]
	for {
		old := head.Load()
		atomic.StoreUint64((*uint64)(node), old&^0xffff)
		tag := (old + 1) & 0xffff
		if head.CompareAndSwap(old, uint64(uintptr(node))<<16|tag) {
			return
		}
	}
}

// bump carves size bytes from the session's chunk, refilling it from a
// fresh off-heap region when exhausted.
func (h *stringHeap) bump(sess *Session, size int) (unsafe.Pointer, error) {
	ch := sess.strChunks[h.ctx.id]
	if ch == nil {
		ch = &strChunk{}
		sess.strChunks[h.ctx.id] = ch
	}
	if ch.remain < size {
		r, err := h.mgr.alloc.Alloc(strChunkBytes, 8)
		if err != nil {
			return nil, err
		}
		h.mu.Lock()
		h.chunks = append(h.chunks, r)
		h.mu.Unlock()
		h.chunkBytes.Add(strChunkBytes)
		ch.cur = r.Base()
		ch.remain = strChunkBytes
	}
	p := ch.cur
	ch.cur = unsafe.Add(ch.cur, size)
	ch.remain -= size
	return p, nil
}

// bytes reports the off-heap bytes the heap holds (chunks plus oversized
// regions).
func (h *stringHeap) bytes() int64 {
	h.mu.Lock()
	big := int64(0)
	for _, r := range h.big {
		big += int64(r.Size())
	}
	h.mu.Unlock()
	return h.chunkBytes.Load() + big
}

func (h *stringHeap) release() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, r := range h.chunks {
		_ = h.mgr.alloc.Free(r)
	}
	h.chunks = nil
	for _, r := range h.big {
		_ = h.mgr.alloc.Free(r)
	}
	h.big = make(map[uintptr]*offheap.Region)
	for i := range h.classes {
		h.classes[i].Store(0)
	}
}
