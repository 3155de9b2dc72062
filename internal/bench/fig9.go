package bench

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/managed"
	"repro/internal/tpch"
)

// Figure9Result holds the maximum observed scheduling timeout while a
// churn thread allocates, for growing resident collection sizes.
type Figure9Result struct {
	Sizes  []int                // resident lineitem objects
	Series map[string][]float64 // max timeout in ms
}

// Figure9 reproduces "Impact of garbage collection" (Fig. 9): a number of
// lineitem objects is held resident in either a managed collection or an
// SMC; one thread then continuously allocates short-lived managed
// objects while a second thread sleeps 1 ms at a time and records the
// largest overshoot, which is dominated by GC activity triggered by the
// churn (§7).
//
// Substitution note: .NET's batch (non-concurrent) collector pauses all
// threads for full collections, which makes the managed series grow
// steeply. Go only has a concurrent collector; the "batch" series here
// forces periodic full runtime.GC() cycles. The growth with resident heap
// size (managed) versus flatness (SMC) is the reproduced shape; absolute
// pause magnitudes are Go's, not .NET's.
func Figure9(o Options) (*Figure9Result, error) {
	o = o.WithDefaults()
	base := tpch.Generate(o.SF, o.Seed)
	res := &Figure9Result{Series: map[string][]float64{}}

	n0 := len(base.Lineitems)
	for _, mult := range []int{1, 2, 4, 8} {
		res.Sizes = append(res.Sizes, n0*mult)
	}

	measure := func(churnBatch bool) float64 {
		stop := make(chan struct{})
		var maxOvershoot atomic.Int64

		// Sleeper thread: "continuously sleeps for one millisecond and
		// measures the time that passed in the meantime".
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
				}
				t0 := time.Now()
				time.Sleep(time.Millisecond)
				over := time.Since(t0) - time.Millisecond
				for {
					cur := maxOvershoot.Load()
					if int64(over) <= cur || maxOvershoot.CompareAndSwap(cur, int64(over)) {
						break
					}
				}
			}
		}()

		// Churn thread: allocates managed objects with varying lifetimes
		// into its own sink, which the measuring goroutine publishes
		// after joining it, so no two goroutines share a sink.
		churned := make(chan struct{})
		var sink *tpch.MLineitem
		go func() {
			defer close(churned)
			var keep []*tpch.MLineitem
			i := 0
			lastGC := time.Now()
			for {
				select {
				case <-stop:
					return
				default:
				}
				l := rowToMLineitem(&base.Lineitems[i%n0])
				if i%7 == 0 {
					keep = append(keep, l) // longer-lived survivors
					if len(keep) > 4096 {
						keep = keep[2048:]
					}
				}
				sink = l
				if churnBatch && time.Since(lastGC) > 50*time.Millisecond {
					runtime.GC()
					lastGC = time.Now()
				}
				i++
			}
		}()

		time.Sleep(400 * time.Millisecond)
		close(stop)
		<-done
		<-churned
		sinkAny = sink
		return float64(maxOvershoot.Load()) / 1e6
	}

	for _, size := range res.Sizes {
		mult := size / n0
		// Managed resident set.
		{
			list := managed.NewList[tpch.MLineitem](size)
			for m := 0; m < mult; m++ {
				for i := range base.Lineitems {
					list.AddPtr(rowToMLineitem(&base.Lineitems[i]))
				}
			}
			runtime.GC()
			res.Series["managed-interactive"] = append(res.Series["managed-interactive"], measure(false))
			res.Series["managed-batch"] = append(res.Series["managed-batch"], measure(true))
			list.Clear()
			sinkAny = nil
		}
		// Self-managed resident set.
		{
			rt, err := core.NewRuntime(core.Options{HeapBackend: o.HeapBackend})
			if err != nil {
				return nil, err
			}
			coll, err := core.NewCollection[tpch.SLineitem](rt, "lineitem", core.RowIndirect)
			if err != nil {
				rt.Close()
				return nil, err
			}
			s := rt.MustSession()
			for m := 0; m < mult; m++ {
				for i := range base.Lineitems {
					l := rowToSLineitem(&base.Lineitems[i])
					if _, err := coll.Add(s, &l); err != nil {
						rt.Close()
						return nil, err
					}
				}
			}
			runtime.GC()
			res.Series["self-managed-interactive"] = append(res.Series["self-managed-interactive"], measure(false))
			res.Series["self-managed-batch"] = append(res.Series["self-managed-batch"], measure(true))
			s.Close()
			rt.Close()
		}
	}
	return res, nil
}

// Render emits the Figure 9 table.
func (r *Figure9Result) Render() *Table {
	cols := []string{"series"}
	for _, s := range r.Sizes {
		cols = append(cols, fmt.Sprintf("%dk objs", s/1000))
	}
	t := &Table{
		Title:   "Figure 9 — longest thread timeout caused by GC (ms)",
		Columns: cols,
		Notes: []string{
			"managed series should grow with resident size; self-managed stays flat",
			"'batch' forces periodic full GCs (see DESIGN.md: Go has no .NET batch mode)",
		},
	}
	for _, name := range []string{"managed-batch", "managed-interactive", "self-managed-batch", "self-managed-interactive"} {
		row := []string{name}
		for _, v := range r.Series[name] {
			row = append(row, fmt.Sprintf("%.2f", v))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
