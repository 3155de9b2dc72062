package tpch

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/core"
)

// joinAllocCase pairs a join pipeline driver with its serial oracle; both
// run the same per-block kernel, so their Go-heap allocation should differ
// only by the pipeline's fixed scaffolding.
type joinAllocCase struct {
	name   string
	serial func(s *core.Session, p Params)
	par    func(s *core.Session, p Params) error
}

func joinAllocCases(q *SMCQueries) []joinAllocCase {
	ctx := context.Background()
	return []joinAllocCase{
		{"Q3",
			func(s *core.Session, p Params) { q.Q3(s, p) },
			func(s *core.Session, p Params) error { _, err := q.Q3ParCtx(ctx, s, p, 1); return err }},
		{"Q10",
			func(s *core.Session, p Params) { q.Q10(s, p) },
			func(s *core.Session, p Params) error { _, err := q.Q10ParCtx(ctx, s, p, 1); return err }},
	}
}

// loadJoinAllocDB loads d into a fresh row-indirect runtime.
func loadJoinAllocDB(tb testing.TB, d *Dataset) (*SMCQueries, *core.Session) {
	tb.Helper()
	rt := core.MustRuntime(core.Options{HeapBackend: true})
	tb.Cleanup(func() { rt.Close() })
	s := rt.MustSession()
	tb.Cleanup(func() { s.Close() })
	sdb, err := LoadSMC(rt, s, d, core.RowIndirect)
	if err != nil {
		tb.Fatal(err)
	}
	return NewSMCQueries(sdb), s
}

// allocPerCall reports the mean Go-heap bytes one call of fn allocates
// over n calls (after one warm-up call that fills the arena pool).
func allocPerCall(tb testing.TB, n int, fn func() error) uint64 {
	tb.Helper()
	if err := fn(); err != nil {
		tb.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := fn(); err != nil {
			tb.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

// TestJoinDriverGoHeapBytes: at one worker, a join pipeline driver must
// allocate no more Go heap than its serial oracle plus fixed pipeline
// scaffolding — per-query state belongs in the leased arenas, and the
// semi-join key set is built from block synopses, not from every
// qualifying row. (Kept out of the race-stress selection: -race inflates
// allocations.)
func TestJoinDriverGoHeapBytes(t *testing.T) {
	q, s := loadJoinAllocDB(t, joinDataset(t))
	p := DefaultParams()
	const calls = 20
	const slack = 64 << 10
	for _, c := range joinAllocCases(q) {
		serial := allocPerCall(t, calls, func() error { c.serial(s, p); return nil })
		par := allocPerCall(t, calls, func() error { return c.par(s, p) })
		t.Logf("%s: serial %d B/call, ParCtx(w=1) %d B/call", c.name, serial, par)
		if limit := 2*serial + slack; par > limit {
			t.Errorf("%sParCtx(workers=1) allocates %d B/call, over 2×serial (%d B) + %d B = %d B",
				c.name, par, serial, slack, limit)
		}
	}
}

// BenchmarkJoinPipeline compares each join pipeline driver at one worker
// with its serial oracle on the same data:
//
//	go test ./internal/tpch -run '^$' -bench JoinPipeline -benchtime 200x
func BenchmarkJoinPipeline(b *testing.B) {
	q, s := loadJoinAllocDB(b, Generate(0.01, 42))
	p := DefaultParams()
	for _, c := range joinAllocCases(q) {
		b.Run(c.name+"/serial", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.serial(s, p)
			}
		})
		b.Run(c.name+"/ParCtx-w1", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.par(s, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
