package core

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"unsafe"

	"repro/internal/mem"
	"repro/internal/schema"
	"repro/internal/types"
)

// Collection is a self-managed collection of tabular objects of type T.
//
// The collection owns its objects' memory: Add allocates a slot in the
// collection's private memory context and constructs the object there;
// Remove frees it and nulls all references (§2). T must be a tabular
// struct (validated at construction); reference fields use Ref[U] and
// require the referenced collection to exist first, mirroring the static
// knowledge the paper's compiler has about inter-collection references.
type Collection[T any] struct {
	rt     *Runtime
	ctx    *mem.Context
	sch    *schema.Schema
	name   string
	layout Layout

	// refPlan[i] describes the i-th schema field of Kind Ref.
	refPlan map[int]*refBinding

	// copyPlan is the precompiled marshalling program: contiguous scalar
	// fields whose Go-struct and slot offsets advance in lockstep are
	// coalesced into single block copies; strings and refs get their own
	// ops. Only used for row layouts (columnar copies per field).
	copyPlan []copyOp

	count atomic.Int64
}

type copyOpKind uint8

const (
	opBlock copyOpKind = iota // memmove size bytes
	opString
	opRef
)

type copyOp struct {
	kind     copyOpKind
	goOff    uintptr
	slotOff  uintptr
	size     uintptr
	fieldIdx int
}

// buildCopyPlan coalesces scalar runs. Schema layout follows Go's field
// order and alignment rules, so scalar offsets advance in lockstep until
// a string (16-byte Go header vs 8-byte StrRef) or a ref breaks the run.
func buildCopyPlan(sch *schema.Schema) []copyOp {
	var plan []copyOp
	for i := range sch.Fields {
		f := &sch.Fields[i]
		switch f.Kind {
		case schema.String:
			plan = append(plan, copyOp{kind: opString, goOff: f.GoOffset, slotOff: f.Offset, fieldIdx: i})
		case schema.Ref:
			plan = append(plan, copyOp{kind: opRef, goOff: f.GoOffset, slotOff: f.Offset, fieldIdx: i})
		default:
			sz := f.Kind.Size()
			if n := len(plan); n > 0 && plan[n-1].kind == opBlock &&
				plan[n-1].goOff+plan[n-1].size == f.GoOffset &&
				plan[n-1].slotOff+plan[n-1].size == f.Offset {
				plan[n-1].size += sz
				continue
			}
			plan = append(plan, copyOp{kind: opBlock, goOff: f.GoOffset, slotOff: f.Offset, size: sz})
		}
	}
	return plan
}

// refBinding wires a Ref field to its target context, whose layout
// decides the field's encoding (mem.Context.StoreRef).
type refBinding struct {
	field *schema.Field
	src   *mem.Context
	// target is the referenced collection's context; nil while unbound
	// (the target collection does not exist yet). An unbound field can
	// only ever hold null references — references are minted by the
	// target collection's Add — so late binding is always sound.
	target *mem.Context
}

func (b *refBinding) bind(target *mem.Context) {
	b.target = target
	target.RegisterRefEdge(b.src, b.field.Index)
}

// store encodes r into the field at dst in the target's encoding. An
// unbound field stores the indirect form, whose null is all zeros in
// every encoding.
func (b *refBinding) store(dst unsafe.Pointer, r types.Ref) {
	if b.target == nil {
		*(*types.Ref)(dst) = r
		return
	}
	b.target.StoreRef(dst, r)
}

// load decodes the field at src.
func (b *refBinding) load(src unsafe.Pointer) types.Ref {
	if b.target == nil {
		return *(*types.Ref)(src)
	}
	return b.target.LoadRef(src)
}

// NewCollection creates a collection named name over element type T.
// Collections referenced by T's Ref fields must already exist in the
// runtime (create collections in dependency order).
func NewCollection[T any](rt *Runtime, name string, layout Layout) (*Collection[T], error) {
	sch, err := schema.Of[T]()
	if err != nil {
		return nil, err
	}
	ctx, err := rt.mgr.NewContext(name, sch, layout)
	if err != nil {
		return nil, err
	}
	c := &Collection[T]{
		rt:      rt,
		ctx:     ctx,
		sch:     sch,
		name:    name,
		layout:  layout,
		refPlan: make(map[int]*refBinding),
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, fi := range sch.RefFields {
		f := &sch.Fields[fi]
		b := &refBinding{field: f, src: ctx}
		var target *mem.Context
		for _, nc := range rt.colls {
			if nc.ctx.Schema().GoType == f.Target {
				if target != nil {
					return nil, fmt.Errorf("core: ref field %s.%s target type %v is ambiguous (multiple collections)", name, f.Name, f.Target)
				}
				target = nc.ctx
			}
		}
		if f.Target == sch.GoType {
			target = ctx // self-reference
		}
		if target != nil {
			b.bind(target)
		} else {
			// Unbound: references to a collection that does not exist
			// cannot exist either, so defer binding until the target
			// collection is created (rt.lateBind below).
			rt.pending = append(rt.pending, b)
		}
		c.refPlan[fi] = b
	}
	// Late-bind any previously created collections whose ref fields were
	// waiting for this element type.
	remaining := rt.pending[:0]
	for _, b := range rt.pending {
		if b.field.Target == sch.GoType {
			b.bind(ctx)
			continue
		}
		remaining = append(remaining, b)
	}
	rt.pending = remaining
	rt.colls = append(rt.colls, namedColl{name, ctx})
	if layout != mem.Columnar {
		c.copyPlan = buildCopyPlan(sch)
	}
	return c, nil
}

// MustCollection is NewCollection, panicking on error.
func MustCollection[T any](rt *Runtime, name string, layout Layout) *Collection[T] {
	c, err := NewCollection[T](rt, name, layout)
	if err != nil {
		panic(err)
	}
	return c
}

// Name returns the collection name.
func (c *Collection[T]) Name() string { return c.name }

// Schema returns the element schema.
func (c *Collection[T]) Schema() *schema.Schema { return c.sch }

// Context exposes the memory context for compiled query code.
func (c *Collection[T]) Context() *mem.Context { return c.ctx }

// LayoutKind returns the storage layout.
func (c *Collection[T]) LayoutKind() Layout { return c.layout }

// Len returns the number of objects currently in the collection.
func (c *Collection[T]) Len() int { return int(c.count.Load()) }

// MemoryBytes reports the collection's off-heap footprint.
func (c *Collection[T]) MemoryBytes() int64 { return c.ctx.MemoryBytes() }

// Add allocates, constructs and publishes a new object whose fields are
// copied from v, returning a reference to it ("The collection's Add
// method allocates memory for the object, calls the object's constructor,
// adds the object to the collection and returns a reference", §2).
func (c *Collection[T]) Add(s *Session, v *T) (Ref[T], error) {
	ref, obj, err := c.ctx.Alloc(s.ms)
	if err != nil {
		return Ref[T]{}, err
	}
	if err := c.marshal(s, obj, v); err != nil {
		return Ref[T]{}, err
	}
	c.ctx.Publish(s.ms, obj)
	c.count.Add(1)
	return Ref[T]{R: ref}, nil
}

// MustAdd is Add, panicking on error (examples and loaders).
func (c *Collection[T]) MustAdd(s *Session, v *T) Ref[T] {
	r, err := c.Add(s, v)
	if err != nil {
		panic(err)
	}
	return r
}

// Remove frees the object: its slot enters limbo, the incarnation bumps,
// and all references to it become null (§2, §3.5).
func (c *Collection[T]) Remove(s *Session, r Ref[T]) error {
	s.Enter()
	defer s.Exit()
	if err := c.ctx.Remove(s.ms, r.R); err != nil {
		return err
	}
	c.count.Add(-1)
	return nil
}

// Get copies the object out of the collection. Returns ErrNullReference
// if the object was removed.
func (c *Collection[T]) Get(s *Session, r Ref[T]) (T, error) {
	var out T
	s.Enter()
	defer s.Exit()
	obj, err := c.ctx.Deref(s.ms, r.R)
	if err != nil {
		return out, err
	}
	c.unmarshal(s, obj, &out)
	return out, nil
}

// Deref resolves a reference to its raw object location for compiled
// query code. Must be called inside a critical section.
func (c *Collection[T]) Deref(s *Session, r Ref[T]) (mem.Obj, error) {
	return c.ctx.Deref(s.ms, r.R)
}

// Enumerate returns the serial, unpruned block enumerator compiled
// queries use as their oracle. The session must be inside a critical
// section for the enumeration's lifetime. Pruned and cancellable scans go
// through ParallelBlocksPredCtx.
func (c *Collection[T]) Enumerate(s *Session) *mem.Enumerator {
	return c.ctx.NewEnumerator(s.ms)
}

// RegisterSynopses declares per-block min/max synopses for the named
// columns (int32, int64, date or decimal fields), enabling predicate
// pushdown on scans of this collection. Must be called before the first
// Add — register at collection-construction time, the way reference
// edges are (the paper's compiler would derive this from the query
// workload; here the application declares it).
func (c *Collection[T]) RegisterSynopses(names ...string) error {
	return c.ctx.RegisterSynopses(names...)
}

// MustRegisterSynopses is RegisterSynopses, panicking on error.
func (c *Collection[T]) MustRegisterSynopses(names ...string) {
	if err := c.ctx.RegisterSynopses(names...); err != nil {
		panic(err)
	}
}

// RegisterClusterKey names one registered synopsis column as the
// collection's compaction sort key: under Options.CompactionPacking ==
// PackCluster, compaction groups form over key-adjacent blocks and
// targets are rebuilt in key order, so the collection's synopsis bounds
// recover to tight, near-disjoint ranges at every maintenance pass
// instead of by accident. Register the synopsis first (RegisterSynopses);
// without PackCluster the registration is inert.
func (c *Collection[T]) RegisterClusterKey(name string) error {
	return c.ctx.RegisterClusterKey(name)
}

// Predicate starts a scan predicate over the collection's registered
// synopsis columns; chain the *Range methods and pass it to the *Pred
// scan variants (or query.Where).
func (c *Collection[T]) Predicate() *mem.ScanPredicate {
	return c.ctx.Predicate()
}

// ForEach invokes fn with a reference and a copy of every object, inside
// one critical section per block (§4). fn returning false stops early.
func (c *Collection[T]) ForEach(s *Session, fn func(Ref[T], *T) bool) {
	var tmp T
	c.ctx.ForEachValid(s.ms, func(b *mem.Block, slot int) bool {
		obj := mem.Obj{Blk: b, Slot: slot}
		if c.layout != mem.Columnar {
			obj.Ptr = b.SlotData(slot)
		}
		c.unmarshal(s, obj, &tmp)
		return fn(Ref[T]{R: c.ctx.MakeRef(b, slot)}, &tmp)
	})
}

// marshal copies a Go struct into an off-heap slot.
func (c *Collection[T]) marshal(s *Session, obj mem.Obj, v *T) error {
	base := unsafe.Pointer(v)
	if c.copyPlan != nil {
		slot := obj.Ptr
		for i := range c.copyPlan {
			op := &c.copyPlan[i]
			src := unsafe.Add(base, op.goOff)
			dst := unsafe.Add(slot, op.slotOff)
			switch op.kind {
			case opBlock:
				copy(unsafe.Slice((*byte)(dst), op.size), unsafe.Slice((*byte)(src), op.size))
			case opString:
				sr, err := c.ctx.AllocString(s.ms, *(*string)(src))
				if err != nil {
					return err
				}
				*(*types.StrRef)(dst) = sr
			case opRef:
				c.refPlan[op.fieldIdx].store(dst, *(*types.Ref)(src))
			}
		}
		return nil
	}
	for i := range c.sch.Fields {
		f := &c.sch.Fields[i]
		src := unsafe.Add(base, f.GoOffset)
		dst := obj.Blk.FieldPtr(obj.Slot, f)
		switch f.Kind {
		case schema.Bool:
			*(*bool)(dst) = *(*bool)(src)
		case schema.Int32, schema.Date:
			*(*int32)(dst) = *(*int32)(src)
		case schema.Int64:
			*(*int64)(dst) = *(*int64)(src)
		case schema.Float64:
			*(*float64)(dst) = *(*float64)(src)
		case schema.Decimal:
			*(*[2]uint64)(dst) = *(*[2]uint64)(src)
		case schema.String:
			sr, err := c.ctx.AllocString(s.ms, *(*string)(src))
			if err != nil {
				return err
			}
			*(*types.StrRef)(dst) = sr
		case schema.Ref:
			c.refPlan[i].store(dst, *(*types.Ref)(src))
		}
	}
	return nil
}

// unmarshal copies an off-heap slot into a Go struct.
func (c *Collection[T]) unmarshal(s *Session, obj mem.Obj, v *T) {
	base := unsafe.Pointer(v)
	for i := range c.sch.Fields {
		f := &c.sch.Fields[i]
		dst := unsafe.Add(base, f.GoOffset)
		src := obj.Field(f)
		switch f.Kind {
		case schema.Bool:
			*(*bool)(dst) = *(*bool)(src)
		case schema.Int32, schema.Date:
			*(*int32)(dst) = *(*int32)(src)
		case schema.Int64:
			*(*int64)(dst) = *(*int64)(src)
		case schema.Float64:
			*(*float64)(dst) = *(*float64)(src)
		case schema.Decimal:
			*(*[2]uint64)(dst) = *(*[2]uint64)(src)
		case schema.String:
			*(*string)(dst) = (*(*types.StrRef)(src)).String()
		case schema.Ref:
			*(*types.Ref)(dst) = c.refPlan[i].load(src)
		}
	}
}

// SetCoalescedCopy toggles the coalesced marshalling plan (DESIGN.md:
// scalar field runs are copied with single memmoves). It exists for the
// ablation harness — production code leaves coalescing on. No effect on
// columnar collections, which always marshal per field.
func (c *Collection[T]) SetCoalescedCopy(enabled bool) {
	if c.layout == mem.Columnar {
		return
	}
	if enabled {
		c.copyPlan = buildCopyPlan(c.sch)
	} else {
		c.copyPlan = nil
	}
}

// FieldRef is a pre-resolved handle for dereferencing an in-object
// reference field during query processing; compiled queries hoist one per
// join edge ("most joins are performed using references", §7). The hop
// itself belongs to the target context (mem.Context.DerefField), whose
// layout picks the check, so collections of one runtime may use
// different layouts.
type FieldRef struct {
	Field  *schema.Field
	Target *mem.Context
}

// FieldRefByName builds a FieldRef for the named Ref field.
func (c *Collection[T]) FieldRefByName(name string) FieldRef {
	f := c.sch.MustField(name)
	b, ok := c.refPlan[f.Index]
	if !ok {
		panic(fmt.Sprintf("core: %s.%s is not a reference field", c.name, name))
	}
	if b.target == nil {
		panic(fmt.Sprintf("core: %s.%s references %v, but no such collection exists", c.name, name, f.Target))
	}
	return FieldRef{Field: f, Target: b.target}
}

// Deref follows the reference stored in obj's field into the target
// collection, returning the target object's location. Must run inside a
// critical section. Direct pointers found stale after a relocation are
// fixed up in place (§6).
func (fr FieldRef) Deref(s *Session, obj mem.Obj) (mem.Obj, error) {
	return fr.Target.DerefField(s.ms, obj.Field(fr.Field))
}

// DerefAt is Deref for a kernel that already holds the field's address
// cell, taken from its block's column view.
func (fr FieldRef) DerefAt(s *Session, cell unsafe.Pointer) (mem.Obj, error) {
	return fr.Target.DerefField(s.ms, cell)
}

// refOf reconstructs a typed reference from an enumeration position.
func (c *Collection[T]) refOf(b *mem.Block, slot int) Ref[T] {
	return Ref[T]{R: c.ctx.MakeRef(b, slot)}
}

var _ types.RefTyped = Ref[struct{ X int32 }]{}

var _ = reflect.TypeOf // keep reflect import for RefTargetType
