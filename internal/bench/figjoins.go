package bench

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/tpch"
)

// JoinsPoint is one worker count's join-query measurements
// (milliseconds), on the indirect and direct-pointer row layouts.
type JoinsPoint struct {
	Workers  int
	Q3IndMs  float64
	Q3DirMs  float64
	Q5IndMs  float64
	Q5DirMs  float64
	Q7IndMs  float64
	Q7DirMs  float64
	Q8IndMs  float64
	Q8DirMs  float64
	Q9IndMs  float64
	Q9DirMs  float64
	Q10IndMs float64
	Q10DirMs float64
}

// JoinsResult is the parallel-join scaling figure (beyond-paper): the
// unified query pipeline — arena leases, partitioned region tables,
// parallel per-partition merge, parallel finish — swept over worker
// counts on the reference-join queries Q3, Q5, Q7, Q8, Q9 and Q10.
type JoinsResult struct {
	SF     float64
	CPUs   int
	Reps   int
	Points []JoinsPoint
}

// FigureJoins measures the parallel join drivers Q3ParCtx, Q5ParCtx,
// Q7ParCtx, Q8ParCtx, Q9ParCtx and Q10ParCtx (row-indirect and row-direct
// layouts — the join-heavy queries are where §6 direct pointers matter)
// swept over worker counts. The 1-worker point runs the scan inline on
// the coordinator session with the same shared per-block kernels as the
// serial queries, so it is an honest serial baseline for the pipeline
// refactor.
func FigureJoins(o Options) (*JoinsResult, error) {
	explicit := len(o.Threads) > 0
	o = o.WithDefaults()
	data := tpch.Generate(o.SF, o.Seed)
	p := tpch.DefaultParams()

	load := func(layout core.Layout) (*core.Runtime, *core.Session, *tpch.SMCQueries, error) {
		rt, err := core.NewRuntime(core.Options{HeapBackend: o.HeapBackend})
		if err != nil {
			return nil, nil, nil, err
		}
		s := rt.MustSession()
		db, err := tpch.LoadSMC(rt, s, data, layout)
		if err != nil {
			s.Close()
			rt.Close()
			return nil, nil, nil, err
		}
		return rt, s, tpch.NewSMCQueries(db), nil
	}
	rtInd, sInd, qInd, err := load(core.RowIndirect)
	if err != nil {
		return nil, err
	}
	defer func() { sInd.Close(); rtInd.Close() }()
	rtDir, sDir, qDir, err := load(core.RowDirect)
	if err != nil {
		return nil, err
	}
	defer func() { sDir.Close(); rtDir.Close() }()

	sweep := workerSweep(o.Threads, explicit)

	ctx := context.Background()
	res := &JoinsResult{SF: o.SF, CPUs: runtime.NumCPU(), Reps: o.Reps}
	for _, workers := range sweep {
		w := workers
		pt := JoinsPoint{Workers: w}
		for _, m := range []struct {
			name string
			dst  *float64
			run  func() (err error)
		}{
			{"Q3 ind", &pt.Q3IndMs, func() (err error) { sinkAny, err = qInd.Q3ParCtx(ctx, sInd, p, w); return }},
			{"Q3 dir", &pt.Q3DirMs, func() (err error) { sinkAny, err = qDir.Q3ParCtx(ctx, sDir, p, w); return }},
			{"Q5 ind", &pt.Q5IndMs, func() (err error) { sinkAny, err = qInd.Q5ParCtx(ctx, sInd, p, w); return }},
			{"Q5 dir", &pt.Q5DirMs, func() (err error) { sinkAny, err = qDir.Q5ParCtx(ctx, sDir, p, w); return }},
			{"Q7 ind", &pt.Q7IndMs, func() (err error) { sinkAny, err = qInd.Q7ParCtx(ctx, sInd, p, w); return }},
			{"Q7 dir", &pt.Q7DirMs, func() (err error) { sinkAny, err = qDir.Q7ParCtx(ctx, sDir, p, w); return }},
			{"Q8 ind", &pt.Q8IndMs, func() (err error) { sinkAny, err = qInd.Q8ParCtx(ctx, sInd, p, w); return }},
			{"Q8 dir", &pt.Q8DirMs, func() (err error) { sinkAny, err = qDir.Q8ParCtx(ctx, sDir, p, w); return }},
			{"Q9 ind", &pt.Q9IndMs, func() (err error) { sinkAny, err = qInd.Q9ParCtx(ctx, sInd, p, w); return }},
			{"Q9 dir", &pt.Q9DirMs, func() (err error) { sinkAny, err = qDir.Q9ParCtx(ctx, sDir, p, w); return }},
			{"Q10 ind", &pt.Q10IndMs, func() (err error) { sinkAny, err = qInd.Q10ParCtx(ctx, sInd, p, w); return }},
			{"Q10 dir", &pt.Q10DirMs, func() (err error) { sinkAny, err = qDir.Q10ParCtx(ctx, sDir, p, w); return }},
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
func (r *JoinsResult) Render() *Table {
	var base JoinsPoint
	if len(r.Points) > 0 {
		base = r.Points[0]
		for _, pt := range r.Points {
			if pt.Workers < base.Workers {
				base = pt
			}
		}
	}
	t := &Table{
		Title:   fmt.Sprintf("Parallel join scaling — SF=%v, %d CPUs (ms, ×=speedup vs %d worker(s))", r.SF, r.CPUs, base.Workers),
		Columns: []string{"workers", "Q3 ind", "×", "Q3 dir", "×", "Q5 ind", "×", "Q5 dir", "×", "Q7 ind", "×", "Q7 dir", "×", "Q8 ind", "×", "Q8 dir", "×", "Q9 ind", "×", "Q9 dir", "×", "Q10 ind", "×", "Q10 dir", "×"},
		Notes: []string{
			"unified pipeline: per-worker leased arenas + partitioned tables, parallel per-partition merge + finish",
			fmt.Sprintf("speedup requires free cores: GOMAXPROCS=%d, %s", runtime.GOMAXPROCS(0), runtime.Version()),
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
			fmtMs(pt.Q3IndMs), sp(base.Q3IndMs, pt.Q3IndMs),
			fmtMs(pt.Q3DirMs), sp(base.Q3DirMs, pt.Q3DirMs),
			fmtMs(pt.Q5IndMs), sp(base.Q5IndMs, pt.Q5IndMs),
			fmtMs(pt.Q5DirMs), sp(base.Q5DirMs, pt.Q5DirMs),
			fmtMs(pt.Q7IndMs), sp(base.Q7IndMs, pt.Q7IndMs),
			fmtMs(pt.Q7DirMs), sp(base.Q7DirMs, pt.Q7DirMs),
			fmtMs(pt.Q8IndMs), sp(base.Q8IndMs, pt.Q8IndMs),
			fmtMs(pt.Q8DirMs), sp(base.Q8DirMs, pt.Q8DirMs),
			fmtMs(pt.Q9IndMs), sp(base.Q9IndMs, pt.Q9IndMs),
			fmtMs(pt.Q9DirMs), sp(base.Q9DirMs, pt.Q9DirMs),
			fmtMs(pt.Q10IndMs), sp(base.Q10IndMs, pt.Q10IndMs),
			fmtMs(pt.Q10DirMs), sp(base.Q10DirMs, pt.Q10DirMs),
		})
	}
	return t
}
