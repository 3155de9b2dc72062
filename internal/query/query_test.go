package query_test

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/query"
	"repro/internal/region"
	"repro/internal/schema"
)

type row struct {
	Key int64
	Val int64
}

// churnBit marks transient rows the churn test's kernels must ignore.
const churnBit = int64(1) << 40

func testRuntime(t *testing.T) *core.Runtime {
	t.Helper()
	rt := core.MustRuntime(core.Options{BlockSize: 1 << 13, HeapBackend: true})
	t.Cleanup(func() { rt.Close() })
	return rt
}

// sumKernel folds a block into a per-key sum table, skipping churn rows.
func sumKernel(key, val *schema.Field) func(ws *core.Session, blk *mem.Block, t *region.PartitionedTable[int64]) {
	return func(_ *core.Session, blk *mem.Block, t *region.PartitionedTable[int64]) {
		for i := 0; i < blk.Capacity(); i++ {
			if !blk.SlotIsValid(i) {
				continue
			}
			k := *(*int64)(blk.FieldPtr(i, key))
			if k&churnBit != 0 {
				continue
			}
			*t.At(k) += *(*int64)(blk.FieldPtr(i, val))
		}
	}
}

func addI64(dst, src *int64) { *dst += *src }

// tableToMap flattens a merged table for comparison.
func tableToMap(t *region.PartitionedTable[int64]) map[int64]int64 {
	out := make(map[int64]int64)
	if t == nil {
		return out
	}
	t.Range(func(k int64, v *int64) bool {
		out[k] = *v
		return true
	})
	return out
}

// TestParallelPipelineTable: the Table stage must produce exactly the
// serial per-key sums at every worker count — the fan-out, the leases
// and the parallel per-partition merge are invisible to the result.
func TestParallelPipelineTable(t *testing.T) {
	for _, layout := range []core.Layout{core.RowIndirect, core.RowDirect, core.Columnar} {
		t.Run(layout.String(), func(t *testing.T) {
			rt := testRuntime(t)
			s := rt.MustSession()
			defer s.Close()
			coll := core.MustCollection[row](rt, "rows", layout)
			const n = 4000
			want := make(map[int64]int64)
			for i := 0; i < n; i++ {
				k := int64(i % 37)
				coll.MustAdd(s, &row{Key: k, Val: int64(i)})
				want[k] += int64(i)
			}
			pool := region.NewArenaPool(nil, 0, 0)
			defer pool.Close()
			sch := coll.Schema()
			kernel := sumKernel(sch.MustField("Key"), sch.MustField("Val"))
			for _, workers := range []int{1, 2, 3, 4, 8} {
				p := query.New(s, pool, workers)
				merged, err := query.Table(p, coll, 64, kernel, addI64)
				if err != nil {
					t.Fatal(err)
				}
				got := tableToMap(merged)
				if len(got) != len(want) {
					t.Fatalf("workers=%d: %d keys, want %d", workers, len(got), len(want))
				}
				for k, v := range want {
					if got[k] != v {
						t.Fatalf("workers=%d: key %d = %d, want %d", workers, k, got[k], v)
					}
				}
				// PartitionRows is deterministic: two emissions of the same
				// merged table are identical element-for-element.
				emit := func(pt *region.Table[int64], out *[]int64) {
					pt.Range(func(k int64, v *int64) bool {
						*out = append(*out, k<<32|*v&0xffffffff)
						return true
					})
				}
				r1, err1 := query.PartitionRows(p, merged, emit)
				r2, err2 := query.PartitionRows(p, merged, emit)
				if err1 != nil || err2 != nil {
					t.Fatalf("workers=%d: PartitionRows errors %v / %v", workers, err1, err2)
				}
				if len(r1) != len(want) || len(r1) != len(r2) {
					t.Fatalf("workers=%d: PartitionRows %d/%d rows, want %d", workers, len(r1), len(r2), len(want))
				}
				for i := range r1 {
					if r1[i] != r2[i] {
						t.Fatalf("workers=%d: PartitionRows not deterministic at %d", workers, i)
					}
				}
				p.Close()
			}
			// Every leased arena went back to the pool.
			leases, _ := pool.Stats()
			if leases == 0 {
				t.Fatal("pipeline leased no arenas")
			}
		})
	}
}

// TestParallelPipelineTableEmpty: no qualifying rows → nil table, and
// the pipeline still closes cleanly.
func TestParallelPipelineTableEmpty(t *testing.T) {
	rt := testRuntime(t)
	s := rt.MustSession()
	defer s.Close()
	coll := core.MustCollection[row](rt, "rows", core.RowIndirect)
	pool := region.NewArenaPool(nil, 0, 0)
	defer pool.Close()
	sch := coll.Schema()
	p := query.New(s, pool, 4)
	defer p.Close()
	merged, err := query.Table(p, coll, 16, sumKernel(sch.MustField("Key"), sch.MustField("Val")), addI64)
	if err != nil {
		t.Fatal(err)
	}
	if merged != nil {
		t.Fatalf("empty scan built a table with %d entries", merged.Len())
	}
	if rows, err := query.PartitionRows(p, merged, func(pt *region.Table[int64], out *[]int64) {}); err != nil || rows == nil || len(rows) != 0 {
		t.Fatalf("PartitionRows(nil) = %v, %v, want empty non-nil", rows, err)
	}
}

// TestParallelPipelineAccum: plain accumulators merge in worker order
// and match the serial sum; an empty collection yields the zero value.
func TestParallelPipelineAccum(t *testing.T) {
	rt := testRuntime(t)
	s := rt.MustSession()
	defer s.Close()
	coll := core.MustCollection[row](rt, "rows", core.RowIndirect)
	const n = 3000
	want := int64(0)
	for i := 0; i < n; i++ {
		coll.MustAdd(s, &row{Key: int64(i), Val: int64(i)})
		want += int64(i)
	}
	sch := coll.Schema()
	val := sch.MustField("Val")
	pool := region.NewArenaPool(nil, 0, 0)
	defer pool.Close()
	kernel := func(_ int, _ *core.Session, blk *mem.Block, acc *int64) {
		for i := 0; i < blk.Capacity(); i++ {
			if blk.SlotIsValid(i) {
				*acc += *(*int64)(blk.FieldPtr(i, val))
			}
		}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		p := query.New(s, pool, workers)
		got, err := query.Accum(p, coll, kernel, addI64)
		if err != nil {
			t.Fatal(err)
		}
		if *got != want {
			t.Fatalf("workers=%d: sum %d, want %d", workers, *got, want)
		}
		p.Close()
	}
	empty := core.MustCollection[row](rt, "empty", core.RowIndirect)
	p := query.New(s, pool, 4)
	defer p.Close()
	got, err := query.Accum(p, empty, kernel, addI64)
	if err != nil {
		t.Fatal(err)
	}
	if *got != 0 {
		t.Fatalf("empty Accum = %d, want 0", *got)
	}
}

// TestParallelPipelineRows: the finishing scan emits every qualifying
// row exactly once at every worker count.
func TestParallelPipelineRows(t *testing.T) {
	rt := testRuntime(t)
	s := rt.MustSession()
	defer s.Close()
	coll := core.MustCollection[row](rt, "rows", core.RowIndirect)
	const n = 2500
	for i := 0; i < n; i++ {
		coll.MustAdd(s, &row{Key: int64(i), Val: int64(i * 2)})
	}
	sch := coll.Schema()
	key, val := sch.MustField("Key"), sch.MustField("Val")
	pool := region.NewArenaPool(nil, 0, 0)
	defer pool.Close()
	for _, workers := range []int{1, 2, 4} {
		p := query.New(s, pool, workers)
		rows, err := query.Rows(p, coll, func(_ *core.Session, blk *mem.Block, out *[]int64) {
			for i := 0; i < blk.Capacity(); i++ {
				if !blk.SlotIsValid(i) {
					continue
				}
				if k := *(*int64)(blk.FieldPtr(i, key)); k%3 == 0 {
					*out = append(*out, *(*int64)(blk.FieldPtr(i, val)))
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[int64]bool, len(rows))
		for _, v := range rows {
			if seen[v] {
				t.Fatalf("workers=%d: duplicate row %d", workers, v)
			}
			seen[v] = true
		}
		for i := 0; i < n; i += 3 {
			if !seen[int64(i*2)] {
				t.Fatalf("workers=%d: missing row for key %d", workers, i)
			}
		}
		if want := (n + 2) / 3; len(rows) != want {
			t.Fatalf("workers=%d: %d rows, want %d", workers, len(rows), want)
		}
		p.Close()
	}
}

// TestParallelPipelineKeys: the key-range stage builds the semi-join
// edge Q3/Q10 thread between pipeline stages from block synopses alone.
// Its contract is soundness, not exactness: every key of every row in a
// block the build-side predicate admits must be in the set (the
// row-level distillation below is the oracle), keys living only in
// predicate-pruned blocks must be excluded when the key correlates with
// the predicate column, and an empty source must yield the non-nil
// prune-everything set.
func TestParallelPipelineKeys(t *testing.T) {
	rt := testRuntime(t)
	s := rt.MustSession()
	defer s.Close()
	coll := core.MustCollection[row](rt, "keys", core.RowIndirect)
	coll.MustRegisterSynopses("Key", "Val")
	// Key and Val both rise with insertion order, so blocks hold
	// near-disjoint key spans and a Val window prunes whole key spans.
	const n = 5000
	for i := 0; i < n; i++ {
		coll.MustAdd(s, &row{Key: int64(i), Val: int64(i / 10)})
	}
	key := coll.Schema().MustField("Key")
	blockKeys := func(blk *mem.Block) []int64 {
		var ks []int64
		for i := 0; i < blk.Capacity(); i++ {
			if blk.SlotIsValid(i) {
				ks = append(ks, *(*int64)(blk.FieldPtr(i, key)))
			}
		}
		return ks
	}
	// blocksOf maps each block src's scan visits under pred to its keys.
	blocksOf := func(pred *mem.ScanPredicate) map[*mem.Block][]int64 {
		out := make(map[*mem.Block][]int64)
		err := coll.ParallelBlocksPredCtx(context.Background(), s, 1, pred, func(_ int, _ *core.Session, blk *mem.Block) error {
			out[blk] = blockKeys(blk)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	all := blocksOf(nil)
	if len(all) < 4 {
		t.Fatalf("%d blocks: too few to prune", len(all))
	}
	const vlo, vhi = 200, 299 // keys 2000..2999
	window := func() *mem.ScanPredicate { return coll.Predicate().Int64Range("Val", vlo, vhi) }
	admitted := blocksOf(window())
	pool := region.NewArenaPool(nil, 0, 0)
	defer pool.Close()
	for _, workers := range []int{1, 3} {
		p := query.New(s, pool, workers)
		ks, err := query.KeyRanges(p, query.Where(coll, window()), "Key")
		if err != nil {
			t.Fatal(err)
		}
		// Soundness: the row-level distillation of the admitted blocks.
		for _, keys := range admitted {
			for _, k := range keys {
				if !ks.Contains(k) {
					t.Fatalf("workers=%d: key %d of an admitted block missing", workers, k)
				}
			}
		}
		// Pruning: keys living only in predicate-pruned blocks are out.
		excluded := 0
		for blk, keys := range all {
			if _, ok := admitted[blk]; ok {
				continue
			}
			for _, k := range keys {
				if ks.Contains(k) {
					t.Fatalf("workers=%d: key %d of a pruned block kept", workers, k)
				}
				excluded++
			}
		}
		if excluded == 0 {
			t.Fatalf("workers=%d: the window pruned no block", workers)
		}
		// An empty source (a window no block admits) prunes everything.
		empty, err := query.KeyRanges(p, query.Where(coll, coll.Predicate().Int64Range("Val", n, n)), "Key")
		if err != nil {
			t.Fatal(err)
		}
		if empty == nil || !empty.Empty() {
			t.Fatalf("workers=%d: empty source returned %v", workers, empty)
		}
		if empty.Overlaps(math.MinInt64, math.MaxInt64) {
			t.Fatalf("workers=%d: empty key set overlaps", workers)
		}
		if got := blocksOf(coll.Predicate().InKeySet("Key", empty)); len(got) != 0 {
			t.Fatalf("workers=%d: an empty key set admitted %d blocks", workers, len(got))
		}
		p.Close()
	}
}

// TestParallelPipelineRowsUnordered: the streaming finishing stage
// delivers exactly the rows Rows would, block batch by block batch, with
// serialized sink calls; a sink error stops the scan and surfaces.
func TestParallelPipelineRowsUnordered(t *testing.T) {
	rt := testRuntime(t)
	s := rt.MustSession()
	defer s.Close()
	coll := core.MustCollection[row](rt, "rows", core.RowIndirect)
	const n = 2500
	for i := 0; i < n; i++ {
		coll.MustAdd(s, &row{Key: int64(i), Val: int64(i * 2)})
	}
	sch := coll.Schema()
	key, val := sch.MustField("Key"), sch.MustField("Val")
	pool := region.NewArenaPool(nil, 0, 0)
	defer pool.Close()
	emit := func(_ *core.Session, blk *mem.Block, out *[]int64) {
		for i := 0; i < blk.Capacity(); i++ {
			if !blk.SlotIsValid(i) {
				continue
			}
			if k := *(*int64)(blk.FieldPtr(i, key)); k%3 == 0 {
				*out = append(*out, *(*int64)(blk.FieldPtr(i, val)))
			}
		}
	}
	for _, workers := range []int{1, 2, 4} {
		p := query.New(s, pool, workers)
		var streamed []int64
		var batches int
		err := query.RowsUnordered(p, coll, emit, func(rows []int64) error {
			// The batch is reused by the worker: copy, as the contract
			// requires.
			streamed = append(streamed, rows...)
			batches++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[int64]bool, len(streamed))
		for _, v := range streamed {
			if seen[v] {
				t.Fatalf("workers=%d: duplicate row %d", workers, v)
			}
			seen[v] = true
		}
		for i := 0; i < n; i += 3 {
			if !seen[int64(i*2)] {
				t.Fatalf("workers=%d: missing row for key %d", workers, i)
			}
		}
		if want := (n + 2) / 3; len(streamed) != want {
			t.Fatalf("workers=%d: %d rows, want %d", workers, len(streamed), want)
		}
		if batches < 2 {
			t.Fatalf("workers=%d: %d sink batches — streaming never split the result", workers, batches)
		}
		p.Close()
	}

	// A failing sink stops the scan early and surfaces its error.
	p := query.New(s, pool, 2)
	defer p.Close()
	sinkErr := errors.New("sink full")
	calls := 0
	err := query.RowsUnordered(p, coll, emit, func([]int64) error {
		calls++
		return sinkErr
	})
	if !errors.Is(err, sinkErr) {
		t.Fatalf("err = %v, want the sink error", err)
	}
	if calls == 0 {
		t.Fatal("sink never ran")
	}
}

// TestParallelPipelineChurn is the -race variant: Table pipelines run
// against concurrent add/remove churn and an active compactor. Churned
// rows carry the churn bit the kernel filters on, so the stable rows
// fully determine the sums; every run must return exactly the quiesced
// answer while blocks appear, empty and compact underneath it.
func TestParallelPipelineChurn(t *testing.T) {
	rt := testRuntime(t)
	s := rt.MustSession()
	defer s.Close()
	coll := core.MustCollection[row](rt, "rows", core.RowIndirect)
	const stable = 800
	want := make(map[int64]int64)
	for i := 0; i < stable; i++ {
		k := int64(i % 23)
		coll.MustAdd(s, &row{Key: k, Val: int64(i)})
		want[k] += int64(i)
	}
	sch := coll.Schema()
	kernel := sumKernel(sch.MustField("Key"), sch.MustField("Val"))
	pool := region.NewArenaPool(nil, 0, 0)
	defer pool.Close()

	stopCompactor := rt.StartMaintainer(mem.MaintainerConfig{Interval: time.Millisecond}).Stop
	defer stopCompactor()

	stop := make(chan struct{})
	var fail atomic.Value
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cs, err := rt.NewSession()
			if err != nil {
				fail.Store(err.Error())
				return
			}
			defer cs.Close()
			var refs []core.Ref[row]
			for {
				select {
				case <-stop:
					return
				default:
				}
				ref, err := coll.Add(cs, &row{Key: churnBit | int64(w), Val: 1})
				if err != nil {
					fail.Store(err.Error())
					return
				}
				refs = append(refs, ref)
				if len(refs) > 12 {
					victim := refs[0]
					refs = refs[1:]
					if err := coll.Remove(cs, victim); err != nil {
						fail.Store(err.Error())
						return
					}
				}
			}
		}(w)
	}

	deadline := time.Now().Add(500 * time.Millisecond)
	runs := 0
	for time.Now().Before(deadline) && fail.Load() == nil {
		workers := 1 + runs%4
		p := query.New(s, pool, workers)
		merged, err := query.Table(p, coll, 64, kernel, addI64)
		if err != nil {
			t.Fatalf("run %d: %v", runs, err)
		}
		got := tableToMap(merged)
		if len(got) != len(want) {
			t.Fatalf("run %d (workers=%d): %d keys, want %d", runs, workers, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("run %d (workers=%d): key %d = %d, want %d", runs, workers, k, got[k], v)
			}
		}
		p.Close()
		runs++
	}
	close(stop)
	wg.Wait()
	if msg := fail.Load(); msg != nil {
		t.Fatal(msg)
	}
	if runs == 0 {
		t.Fatal("no pipeline runs completed")
	}
}

// TestParallelPipelineCloseIdempotent: double Close must not
// double-return arenas.
func TestParallelPipelineCloseIdempotent(t *testing.T) {
	rt := testRuntime(t)
	s := rt.MustSession()
	defer s.Close()
	pool := region.NewArenaPool(nil, 0, 0)
	defer pool.Close()
	p := query.New(s, pool, 2)
	a := p.Lease()
	if a == nil {
		t.Fatal("Lease returned nil")
	}
	p.Close()
	p.Close()
	leases, reuses := pool.Stats()
	if leases != 1 || reuses != 0 {
		t.Fatalf("pool stats after double close: leases=%d reuses=%d", leases, reuses)
	}
}

// TestParallelPipelineWhere: a Where-wrapped source must produce exactly
// the unwrapped stage's results — pruning only removes blocks the
// predicate proves empty, the kernel's residual filter does the rest —
// while actually skipping blocks on a clustered load.
func TestParallelPipelineWhere(t *testing.T) {
	rt := testRuntime(t)
	s := rt.MustSession()
	defer s.Close()
	coll := core.MustCollection[row](rt, "rows", core.RowIndirect)
	coll.MustRegisterSynopses("Key")
	const n = 4000
	for i := 0; i < n; i++ {
		coll.MustAdd(s, &row{Key: int64(i), Val: int64(i) * 3})
	}
	const lo, hi = 900, 1100
	want := make(map[int64]int64)
	for i := lo; i <= hi; i++ {
		want[int64(i)] = int64(i) * 3
	}
	key, val := coll.Schema().MustField("Key"), coll.Schema().MustField("Val")
	kernel := func(_ *core.Session, blk *mem.Block, t *region.PartitionedTable[int64]) {
		for i := 0; i < blk.Capacity(); i++ {
			if !blk.SlotIsValid(i) {
				continue
			}
			k := *(*int64)(blk.FieldPtr(i, key))
			if k < lo || k > hi { // residual predicate stays per-row
				continue
			}
			*t.At(k) += *(*int64)(blk.FieldPtr(i, val))
		}
	}
	pool := region.NewArenaPool(nil, 0, 0)
	defer pool.Close()
	before := rt.StatsSnapshot()
	for _, workers := range []int{1, 2, 4} {
		pl := query.New(s, pool, workers)
		pred := coll.Predicate().Int64Range("Key", lo, hi)
		got, err := query.Table(pl, query.Where(coll, pred), 64, kernel, addI64)
		if err != nil {
			pl.Close()
			t.Fatal(err)
		}
		gotMap := tableToMap(got)
		pl.Close()
		if len(gotMap) != len(want) {
			t.Fatalf("workers=%d: %d keys, want %d", workers, len(gotMap), len(want))
		}
		for k, v := range want {
			if gotMap[k] != v {
				t.Fatalf("workers=%d: key %d = %d, want %d", workers, k, gotMap[k], v)
			}
		}
		// A nil predicate passes the source through untouched.
		if query.Where(coll, nil) != query.Source(coll) {
			t.Fatal("Where(nil) did not return the source unchanged")
		}
	}
	after := rt.StatsSnapshot()
	if after.BlocksPruned == before.BlocksPruned {
		t.Fatal("Where stage pruned no blocks on a clustered load")
	}
}
