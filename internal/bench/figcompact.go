package bench

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/tpch"
)

// The compaction figure (beyond-paper): the §5 maintenance path swept
// over move-phase worker counts. Two series per worker count:
//
//   - Reclamation throughput: one CompactNowWorkers pass over a heavily
//     fragmented lineitem heap (75% of rows removed, every block under
//     the 30% occupancy threshold), reported as pass wall time and MB of
//     block memory reclaimed per second.
//   - Query interference: Q1 and Q6 latency measured while a compaction
//     pass (kicked off at t0 with the same worker count) runs against
//     the same fragmented heap, next to their baselines on an identical
//     quiesced heap. This is the paper's query-dominated contract under
//     maintenance pressure: enumerators pin pre-state groups and help
//     moving ones, so queries should degrade gracefully, not stall.

// CompactPoint is one worker count's measurements.
type CompactPoint struct {
	Workers int
	// CompactMs is the median wall time of one full compaction pass.
	CompactMs float64
	// ReclaimedMB is the block memory the pass handed to the graveyard.
	ReclaimedMB float64
	// ReclaimMBps is ReclaimedMB / pass time.
	ReclaimMBps float64
	// ObjectsMoved counts relocated objects in the measured pass.
	ObjectsMoved int64
	// Q1DuringMs / Q6DuringMs are query latencies concurrent with a
	// compaction pass at this worker count.
	Q1DuringMs float64
	Q6DuringMs float64
}

// CompactResult is the parallel-compaction scaling figure.
type CompactResult struct {
	SF   float64
	CPUs int
	Reps int
	// Q1BaseMs / Q6BaseMs are the no-compactor baselines on an identical
	// fragmented heap.
	Q1BaseMs float64
	Q6BaseMs float64
	Points   []CompactPoint
}

// fragmentedEnv is one freshly loaded, heavily fragmented lineitem heap.
type fragmentedEnv struct {
	rt *core.Runtime
	s  *core.Session
	q  *tpch.SMCQueries
}

func (e *fragmentedEnv) Close() {
	e.s.Close()
	e.rt.Close()
}

// newFragmentedEnv loads the TPC-H dataset row-indirect and removes
// three of every four lineitems, leaving every full block at ~25%
// occupancy — under the 30% compaction threshold, so one pass can
// reclaim most of the heap.
func newFragmentedEnv(o Options, data *tpch.Dataset) (*fragmentedEnv, error) {
	rt, err := core.NewRuntime(core.Options{HeapBackend: o.HeapBackend})
	if err != nil {
		return nil, err
	}
	s, err := rt.NewSession()
	if err != nil {
		rt.Close()
		return nil, err
	}
	db, err := tpch.LoadSMC(rt, s, data, core.RowIndirect)
	if err != nil {
		s.Close()
		rt.Close()
		return nil, err
	}
	refs := make([]core.Ref[tpch.SLineitem], 0, db.Lineitems.Len())
	db.Lineitems.ForEach(s, func(r core.Ref[tpch.SLineitem], _ *tpch.SLineitem) bool {
		refs = append(refs, r)
		return true
	})
	for i, r := range refs {
		if i%4 == 0 {
			continue
		}
		if err := db.Lineitems.Remove(s, r); err != nil {
			s.Close()
			rt.Close()
			return nil, err
		}
	}
	return &fragmentedEnv{rt: rt, s: s, q: tpch.NewSMCQueries(db)}, nil
}

// FigureCompact measures the parallel compaction engine over o.Threads
// worker counts: reclamation throughput of one pass over a fragmented
// heap, and Q1/Q6 interference while that pass runs. Every measurement
// reloads and re-fragments the heap (a compaction pass consumes its own
// fragmentation), so reps are independent.
func FigureCompact(o Options) (*CompactResult, error) {
	explicit := len(o.Threads) > 0
	o = o.WithDefaults()
	data := tpch.Generate(o.SF, o.Seed)
	p := tpch.DefaultParams()
	sweep := workerSweep(o.Threads, explicit)

	res := &CompactResult{SF: o.SF, CPUs: runtime.NumCPU(), Reps: o.Reps}

	// Baselines: the same queries on an identical fragmented heap with no
	// compactor running.
	{
		env, err := newFragmentedEnv(o, data)
		if err != nil {
			return nil, err
		}
		res.Q1BaseMs = msF(median(o.Reps, func() { sinkAny = env.q.Q1(env.s, p) }))
		res.Q6BaseMs = msF(median(o.Reps, func() { sinkDec = env.q.Q6(env.s, p) }))
		env.Close()
	}

	for _, workers := range sweep {
		w := workers
		pt := CompactPoint{Workers: w}
		var passMs, reclaimedMB, q1s, q6s []float64
		for rep := 0; rep < o.Reps; rep++ {
			// Reclamation throughput: one timed pass per fresh heap.
			env, err := newFragmentedEnv(o, data)
			if err != nil {
				return nil, err
			}
			ms := env.rt.Manager().Stats()
			bytesBefore, movedBefore := ms.BytesReclaimed.Load(), ms.ObjectsMoved.Load()
			t0 := time.Now()
			if _, err := env.rt.CompactNowWorkers(w); err != nil {
				env.Close()
				return nil, err
			}
			passMs = append(passMs, msF(time.Since(t0)))
			reclaimedMB = append(reclaimedMB, float64(ms.BytesReclaimed.Load()-bytesBefore)/(1<<20))
			pt.ObjectsMoved = ms.ObjectsMoved.Load() - movedBefore
			env.Close()

			// Interference: kick a pass off at t0 on a second fresh heap
			// and run the queries against it. The pass may complete while
			// a query runs — the point measured is "query latency with a
			// compaction pass launched alongside".
			env, err = newFragmentedEnv(o, data)
			if err != nil {
				return nil, err
			}
			done := make(chan error, 1)
			go func() {
				_, err := env.rt.CompactNowWorkers(w)
				done <- err
			}()
			t0 = time.Now()
			sinkAny = env.q.Q1(env.s, p)
			q1s = append(q1s, msF(time.Since(t0)))
			t0 = time.Now()
			sinkDec = env.q.Q6(env.s, p)
			q6s = append(q6s, msF(time.Since(t0)))
			if err := <-done; err != nil {
				env.Close()
				return nil, err
			}
			env.Close()
		}
		pt.Q1DuringMs = medF(q1s)
		pt.Q6DuringMs = medF(q6s)
		pt.CompactMs = medF(passMs)
		mb := medF(reclaimedMB)
		pt.ReclaimedMB = mb
		if pt.CompactMs > 0 {
			pt.ReclaimMBps = mb / (pt.CompactMs / 1000)
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// medF returns the median of a float slice (input order is not
// preserved).
func medF(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
	return v[len(v)/2]
}

// Render emits the scaling table with speedups relative to the lowest
// measured worker count.
func (r *CompactResult) Render() *Table {
	var base CompactPoint
	if len(r.Points) > 0 {
		base = r.Points[0]
		for _, pt := range r.Points {
			if pt.Workers < base.Workers {
				base = pt
			}
		}
	}
	t := &Table{
		Title:   fmt.Sprintf("Parallel compaction scaling — SF=%v, %d CPUs (ms, ×=speedup vs %d worker(s))", r.SF, r.CPUs, base.Workers),
		Columns: []string{"workers", "compact", "×", "MB/s", "Q1 during", "Q6 during"},
		Notes: []string{
			fmt.Sprintf("Q1 baseline %s ms, Q6 baseline %s ms (same fragmented heap, no compactor)", fmtMs(r.Q1BaseMs), fmtMs(r.Q6BaseMs)),
			"one plan pass per compaction; per-group moves fan out over leased worker sessions",
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
			fmtMs(pt.CompactMs), sp(base.CompactMs, pt.CompactMs),
			fmt.Sprintf("%.0f", pt.ReclaimMBps),
			fmtMs(pt.Q1DuringMs),
			fmtMs(pt.Q6DuringMs),
		})
	}
	return t
}
