package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"

	"repro/internal/core"
	"repro/internal/decimal"
	"repro/internal/tpch"
)

// workerSweep builds a figure's worker-count list: an explicitly
// configured list is used verbatim, while the default list is extended
// by doubling up to the machine's cores (plus NumCPU itself) so the
// figure shows the full scaling curve.
func workerSweep(threads []int, explicit bool) []int {
	sweep := append([]int(nil), threads...)
	if explicit {
		return sweep
	}
	maxW := 1
	for _, w := range sweep {
		if w > maxW {
			maxW = w
		}
	}
	for w := maxW * 2; w <= runtime.NumCPU(); w *= 2 {
		sweep = append(sweep, w)
		maxW = w
	}
	if n := runtime.NumCPU(); maxW < n {
		sweep = append(sweep, n)
	}
	return sweep
}

// ParallelPoint is one worker count's measurements (milliseconds).
type ParallelPoint struct {
	Workers int     `json:"workers"`
	Q1RowMs float64 `json:"q1_row_ms"`
	Q1ColMs float64 `json:"q1_col_ms"`
	Q6RowMs float64 `json:"q6_row_ms"`
	Q6ColMs float64 `json:"q6_col_ms"`
	AggMs   float64 `json:"agg_ms"`
}

// ParallelResult is the parallel-scan scaling figure (beyond-paper): the
// block-sharded query engine swept over worker counts on full-collection
// scan/aggregate kernels.
type ParallelResult struct {
	SF     float64         `json:"sf"`
	CPUs   int             `json:"cpus"`
	Reps   int             `json:"reps"`
	Meta   Meta            `json:"meta"`
	Points []ParallelPoint `json:"points"`
}

// FigureParallel measures the parallel scan engine: TPC-H Q1 and Q6
// compiled kernels (row-indirect and columnar layouts) plus a typed
// ParallelAggregatePred revenue sum, each swept over o.Threads worker
// counts. The 1-worker point runs the scan inline on the coordinator
// session, so it is an honest serial baseline (same kernel, no pool).
func FigureParallel(o Options) (*ParallelResult, error) {
	// An explicitly configured worker list is used verbatim; only the
	// default sweep is extended up to the machine's cores.
	explicit := len(o.Threads) > 0
	o = o.WithDefaults()
	data := tpch.Generate(o.SF, o.Seed)
	p := tpch.DefaultParams()

	load := func(layout core.Layout) (*core.Runtime, *core.Session, *tpch.SMCDB, *tpch.SMCQueries, error) {
		rt, err := core.NewRuntime(core.Options{HeapBackend: o.HeapBackend})
		if err != nil {
			return nil, nil, nil, nil, err
		}
		s := rt.MustSession()
		db, err := tpch.LoadSMC(rt, s, data, layout)
		if err != nil {
			s.Close()
			rt.Close()
			return nil, nil, nil, nil, err
		}
		return rt, s, db, tpch.NewSMCQueries(db), nil
	}
	rtRow, sRow, dbRow, qRow, err := load(core.RowIndirect)
	if err != nil {
		return nil, err
	}
	defer func() { sRow.Close(); rtRow.Close() }()
	rtCol, sCol, _, qCol, err := load(core.Columnar)
	if err != nil {
		return nil, err
	}
	defer func() { sCol.Close(); rtCol.Close() }()

	sweep := workerSweep(o.Threads, explicit)

	ctx := context.Background()
	res := &ParallelResult{SF: o.SF, CPUs: runtime.NumCPU(), Reps: o.Reps, Meta: CurrentMeta()}
	for _, workers := range sweep {
		w := workers
		pt := ParallelPoint{Workers: w}
		for _, m := range []struct {
			name string
			dst  *float64
			run  func() (err error)
		}{
			{"Q1 row", &pt.Q1RowMs, func() (err error) { sinkAny, err = qRow.Q1ParCtx(ctx, sRow, p, w); return }},
			{"Q1 col", &pt.Q1ColMs, func() (err error) { sinkAny, err = qCol.Q1ParCtx(ctx, sCol, p, w); return }},
			{"Q6 row", &pt.Q6RowMs, func() (err error) { sinkDec, err = qRow.Q6ParCtx(ctx, sRow, p, w); return }},
			{"Q6 col", &pt.Q6ColMs, func() (err error) { sinkDec, err = qCol.Q6ParCtx(ctx, sCol, p, w); return }},
			{"parallel aggregate", &pt.AggMs, func() (err error) {
				sinkDec, err = core.ParallelAggregatePred(dbRow.Lineitems, sRow, w, nil,
					func(int) decimal.Dec128 { return decimal.Dec128{} },
					func(acc decimal.Dec128, _ core.Ref[tpch.SLineitem], v *tpch.SLineitem) decimal.Dec128 {
						return acc.Add(v.ExtendedPrice)
					},
					func(a, b decimal.Dec128) decimal.Dec128 { return a.Add(b) },
				)
				return
			}},
		} {
			d, err := medianErr(o.Reps, m.run)
			if err != nil {
				return nil, fmt.Errorf("%s at %d workers: %w", m.name, w, err)
			}
			*m.dst = msF(d)
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// Render emits the scaling table with speedups relative to the lowest
// measured worker count.
func (r *ParallelResult) Render() *Table {
	var base ParallelPoint
	if len(r.Points) > 0 {
		base = r.Points[0]
		for _, pt := range r.Points {
			if pt.Workers < base.Workers {
				base = pt
			}
		}
	}
	t := &Table{
		Title:   fmt.Sprintf("Parallel scan scaling — SF=%v, %d CPUs (ms, ×=speedup vs %d worker(s))", r.SF, r.CPUs, base.Workers),
		Columns: []string{"workers", "Q1 row", "×", "Q1 col", "×", "Q6 row", "×", "Q6 col", "×", "agg sum", "×"},
		Notes: []string{
			"one §5.2 decision pass per scan, N worker sessions, atomic-cursor work stealing",
			"speedup requires free cores: GOMAXPROCS=" + fmt.Sprint(runtime.GOMAXPROCS(0)),
		},
	}
	sp := func(b, v float64) string {
		if v <= 0 {
			return "-"
		}
		return fmt.Sprintf("%.2f", b/v)
	}
	for _, pt := range r.Points {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(pt.Workers),
			fmtMs(pt.Q1RowMs), sp(base.Q1RowMs, pt.Q1RowMs),
			fmtMs(pt.Q1ColMs), sp(base.Q1ColMs, pt.Q1ColMs),
			fmtMs(pt.Q6RowMs), sp(base.Q6RowMs, pt.Q6RowMs),
			fmtMs(pt.Q6ColMs), sp(base.Q6ColMs, pt.Q6ColMs),
			fmtMs(pt.AggMs), sp(base.AggMs, pt.AggMs),
		})
	}
	return t
}

// WriteJSON emits the machine-readable result (BENCH_parallel.json).
func (r *ParallelResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
