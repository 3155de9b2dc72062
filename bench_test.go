package repro_test

// One testing.B benchmark per figure/table of the paper's evaluation
// (§7). Each benchmark delegates to the same measurement kernels that
// cmd/smcbench uses, at a scale factor sized for `go test -bench`.
// Per-op numbers correspond to one full experiment at that scale.
//
// The figure-by-figure comparison against the paper's reported shapes is
// recorded in EXPERIMENTS.md; run `go run ./cmd/smcbench -fig all` for
// the rendered tables.

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/tpch"
)

const benchSF = 0.005

func benchOpts() bench.Options {
	return bench.Options{SF: benchSF, Seed: 42, Reps: 1, Threads: []int{1, 2}}
}

// BenchmarkFigure6_ReclamationThreshold sweeps the reclamation threshold
// (Fig. 6): allocation/removal throughput, query time and memory.
func BenchmarkFigure6_ReclamationThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure6(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7_AllocationThroughput measures batch allocation
// throughput across collection types and thread counts (Fig. 7).
func BenchmarkFigure7_AllocationThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure7(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure8_RefreshStreams measures TPC-H refresh-stream
// throughput (Fig. 8).
func BenchmarkFigure8_RefreshStreams(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure8(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure9_GCTimeouts measures the longest scheduling timeout
// caused by GC while collections of growing size stay resident (Fig. 9).
// This benchmark is time-based (fixed measurement windows), so interpret
// the table from cmd/smcbench rather than ns/op.
func BenchmarkFigure9_GCTimeouts(b *testing.B) {
	if testing.Short() {
		b.Skip("fixed-duration experiment")
	}
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure9(bench.Options{SF: 0.002, Seed: 42, Reps: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure10_Enumeration measures simple and nested enumeration in
// fresh and worn collection states (Fig. 10).
func BenchmarkFigure10_Enumeration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure10(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure11_TPCHvsManaged runs Q1–Q6 over List, Dictionary and
// both SMC access styles (Fig. 11).
func BenchmarkFigure11_TPCHvsManaged(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure11(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure12_DirectAndColumnar runs Q1–Q6 over the three SMC
// layout variants (Fig. 12).
func BenchmarkFigure12_DirectAndColumnar(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure12(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure13_VsColumnStore runs Q1–Q6 over the column-store
// stand-in and the SMC variants (Fig. 13).
func BenchmarkFigure13_VsColumnStore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure13(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLinqVsCompiled measures the §7 in-text LINQ overhead claim.
func BenchmarkLinqVsCompiled(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.FigureLinq(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigureAblation runs the design-choice ablations from DESIGN.md:
// critical-section granularity, deref fast path, coalesced marshalling,
// block-size sweep.
func BenchmarkFigureAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.FigureAblation(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Per-query micro benchmarks (the raw series behind Figures 11–13),
// one representative per engine so `go test -bench` surfaces per-query
// costs directly. ---

func loadedEnv(b *testing.B) (*tpch.ManagedDB, *tpch.SMCQueries, *core.Session, *colstore.DB, func()) {
	b.Helper()
	data := tpch.Generate(benchSF, 42)
	mdb := tpch.LoadManaged(data)
	rt := core.MustRuntime(core.Options{})
	s := rt.MustSession()
	sdb, err := tpch.LoadSMC(rt, s, data, core.RowDirect)
	if err != nil {
		b.Fatal(err)
	}
	return mdb, tpch.NewSMCQueries(sdb), s, colstore.Load(data), func() {
		s.Close()
		rt.Close()
	}
}

func BenchmarkQ1_List(b *testing.B) {
	mdb, _, _, _, done := loadedEnv(b)
	defer done()
	p := tpch.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := tpch.ListQ1(mdb, p); len(rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkQ1_SMCUnsafe(b *testing.B) {
	_, q, s, _, done := loadedEnv(b)
	defer done()
	p := tpch.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := q.Q1(s, p); len(rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkQ1_ColumnStore(b *testing.B) {
	_, _, _, cs, done := loadedEnv(b)
	defer done()
	p := tpch.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := cs.Q1(p); len(rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkQ5_List(b *testing.B) {
	mdb, _, _, _, done := loadedEnv(b)
	defer done()
	p := tpch.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := tpch.ListQ5(mdb, p); len(rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkQ5_SMCDirect(b *testing.B) {
	_, q, s, _, done := loadedEnv(b)
	defer done()
	p := tpch.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := q.Q5(s, p); len(rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkQ6_SMCUnsafe(b *testing.B) {
	_, q, s, _, done := loadedEnv(b)
	defer done()
	p := tpch.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if q.Q6(s, p).IsZero() {
			b.Fatal("zero result")
		}
	}
}

func BenchmarkQ6_ColumnStore(b *testing.B) {
	_, _, _, cs, done := loadedEnv(b)
	defer done()
	p := tpch.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cs.Q6(p).IsZero() {
			b.Fatal("zero result")
		}
	}
}

// BenchmarkAdd_SMC measures single-object Add cost (the Fig. 7 kernel).
func BenchmarkAdd_SMC(b *testing.B) {
	rt := core.MustRuntime(core.Options{})
	defer rt.Close()
	s := rt.MustSession()
	defer s.Close()
	coll := core.MustCollection[tpch.SLineitem](rt, "lineitem", core.RowIndirect)
	data := tpch.Generate(0.001, 42)
	rows := data.Lineitems
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := tpch.SLineitem{
			OrderKey: rows[i%len(rows)].OrderKey,
			Quantity: rows[i%len(rows)].Quantity,
			ShipDate: rows[i%len(rows)].ShipDate,
			Comment:  rows[i%len(rows)].Comment,
		}
		if _, err := coll.Add(s, &l); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAddRemove_SMC measures the full object lifecycle including
// limbo-slot reclamation.
func BenchmarkAddRemove_SMC(b *testing.B) {
	rt := core.MustRuntime(core.Options{})
	defer rt.Close()
	s := rt.MustSession()
	defer s.Close()
	coll := core.MustCollection[tpch.SLineitem](rt, "lineitem", core.RowIndirect)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := tpch.SLineitem{OrderKey: int64(i)}
		r, err := coll.Add(s, &l)
		if err != nil {
			b.Fatal(err)
		}
		if err := coll.Remove(s, r); err != nil {
			b.Fatal(err)
		}
		if i%1024 == 0 {
			rt.Manager().TryAdvanceEpoch()
		}
	}
}
