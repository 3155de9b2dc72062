package tpch

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/decimal"
	"repro/internal/types"
)

// windowOracle is the windowed revenue scan computed straight from the
// generated rows, independent of blocks, layouts and kernels: the revenue
// sum, hit count and order-key sum over ship dates in [lo, hi].
type windowOracle struct {
	sum    decimal.Dec128
	hits   int
	keySum int64
}

func windowFromRows(d *Dataset, lo, hi types.Date) windowOracle {
	var w windowOracle
	for i := range d.Lineitems {
		l := &d.Lineitems[i]
		if l.ShipDate < lo || l.ShipDate > hi {
			continue
		}
		decimal.MulAdd(&w.sum, &l.ExtendedPrice, &l.Discount)
		w.hits++
		w.keySum += l.OrderKey
	}
	return w
}

// TestWindowKernelsMatchRowOracle checks the windowed revenue kernels —
// Q6WindowParCtx with pushdown on and off at 1, 2 and 4 workers, the
// streamed rows of Q6WindowRowsCtx, and Q6WindowPar — on every layout
// against windowFromRows.
func TestWindowKernelsMatchRowOracle(t *testing.T) {
	d := testDataset(t)
	// Window bounds are ship dates of actual rows, so an off-by-one at
	// either end changes the oracle's answer.
	a, b := d.Lineitems[0].ShipDate, d.Lineitems[len(d.Lineitems)/3].ShipDate
	day := d.Lineitems[len(d.Lineitems)/2].ShipDate
	windows := []struct {
		name   string
		lo, hi types.Date
	}{
		{"span", min(a, b), max(a, b)},
		{"all", types.MustDate("1990-01-01"), types.MustDate("2000-12-31")},
		{"day", day, day},
		{"empty", types.MustDate("2005-01-01"), types.MustDate("2005-12-31")},
	}
	ctx := context.Background()
	for _, layout := range []core.Layout{core.RowIndirect, core.RowDirect, core.Columnar} {
		t.Run(layout.String(), func(t *testing.T) {
			rt := core.MustRuntime(core.Options{HeapBackend: true})
			defer rt.Close()
			s := rt.MustSession()
			defer s.Close()
			sdb, err := LoadSMC(rt, s, d, layout)
			if err != nil {
				t.Fatal(err)
			}
			q := NewSMCQueries(sdb)
			for _, w := range windows {
				want := windowFromRows(d, w.lo, w.hi)
				if w.name == "all" && want.hits != len(d.Lineitems) {
					t.Fatalf("window %q covers %d of %d rows", w.name, want.hits, len(d.Lineitems))
				}
				for _, pushdown := range []bool{false, true} {
					for _, workers := range []int{1, 2, 4} {
						got, err := q.Q6WindowParCtx(ctx, s, w.lo, w.hi, workers, pushdown)
						if err != nil {
							t.Fatal(err)
						}
						if got != want.sum {
							t.Fatalf("%s: Q6WindowParCtx(workers=%d, pushdown=%v) = %v, want %v", w.name, workers, pushdown, got, want.sum)
						}
						var rows windowOracle
						err = q.Q6WindowRowsCtx(ctx, s, w.lo, w.hi, workers, pushdown, func(hits []Q6WindowHit) error {
							for _, h := range hits {
								if h.ShipDate < w.lo || h.ShipDate > w.hi {
									t.Errorf("%s: streamed ship date %v outside the window", w.name, h.ShipDate)
								}
								decimal.AddAssign(&rows.sum, &h.Revenue)
								rows.hits++
								rows.keySum += h.OrderKey
							}
							return nil
						})
						if err != nil {
							t.Fatal(err)
						}
						if rows != want {
							t.Fatalf("%s: Q6WindowRowsCtx(workers=%d, pushdown=%v) = %+v, want %+v", w.name, workers, pushdown, rows, want)
						}
					}
				}
				if got := q.Q6WindowPar(s, w.lo, w.hi, 2, true); got != want.sum {
					t.Fatalf("%s: Q6WindowPar = %v, want %v", w.name, got, want.sum)
				}
			}
		})
	}
}
