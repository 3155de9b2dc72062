package tpch

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/types"
)

// TestParallelDriversSurfaceWorkerPanic: a kernel panic inside any
// pipeline driver reaches its caller as mem.ErrWorkerPanic — no driver
// retries on the serial path, which would hide the fault behind the
// oracle's own rows — and the unwind leaks no pooled session, epoch pin
// or query arena.
func TestParallelDriversSurfaceWorkerPanic(t *testing.T) {
	d := testDataset(t)
	p := DefaultParams()
	// Small blocks: every driver's first scan claims at least three.
	rt := core.MustRuntime(core.Options{HeapBackend: true, BlockSize: 1 << 14})
	defer rt.Close()
	s := rt.MustSession()
	defer s.Close()
	sdb, err := LoadSMC(rt, s, d, core.RowIndirect)
	if err != nil {
		t.Fatal(err)
	}
	q := NewSMCQueries(sdb)
	ctx := context.Background()
	lo, hi := types.Date(0), types.Date(1<<30) // full-range window
	discard := func([]Q6WindowHit) error { return nil }
	drivers := []struct {
		name string
		run  func(workers int) error
	}{
		{"Q1ParCtx", func(w int) error { _, err := q.Q1ParCtx(ctx, s, p, w); return err }},
		{"Q3ParCtx", func(w int) error { _, err := q.Q3ParCtx(ctx, s, p, w); return err }},
		{"Q4ParCtx", func(w int) error { _, err := q.Q4ParCtx(ctx, s, p, w); return err }},
		{"Q5ParCtx", func(w int) error { _, err := q.Q5ParCtx(ctx, s, p, w); return err }},
		{"Q6ParCtx", func(w int) error { _, err := q.Q6ParCtx(ctx, s, p, w); return err }},
		{"Q10ParCtx", func(w int) error { _, err := q.Q10ParCtx(ctx, s, p, w); return err }},
		{"Q6WindowParCtx", func(w int) error { _, err := q.Q6WindowParCtx(ctx, s, lo, hi, w, true); return err }},
		{"Q6WindowRowsCtx", func(w int) error { return q.Q6WindowRowsCtx(ctx, s, lo, hi, w, true, discard) }},
	}
	for _, dr := range drivers {
		for _, workers := range []int{1, 2} {
			disarm := fault.Enable(map[string]*fault.Rule{
				fault.PointScanBlock: {At: 3, Panic: true},
			})
			err := dr.run(workers)
			disarm()
			if !errors.Is(err, mem.ErrWorkerPanic) {
				t.Fatalf("%s(workers=%d): err = %v, want mem.ErrWorkerPanic", dr.name, workers, err)
			}
		}
	}
	assertQuiesced(t, rt)
}
