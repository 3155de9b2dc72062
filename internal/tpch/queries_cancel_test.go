package tpch

import (
	"context"
	"errors"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/decimal"
	"repro/internal/types"
)

// TestQ6WindowCancelMidScan: canceling the windowed Q6 scan — before it
// starts and at staggered points while its workers are fanned out —
// returns the cancellation promptly (block-claim granularity plus
// unwind) and leaks nothing: every pooled session returned, every epoch
// pin dropped, every leased arena back in the registered pool. Runs
// that finish before their cancellation must still produce exactly the
// uncancelled sum.
func TestQ6WindowCancelMidScan(t *testing.T) {
	d := testDataset(t)
	rt := core.MustRuntime(core.Options{HeapBackend: true})
	defer rt.Close()
	s := rt.MustSession()
	defer s.Close()
	sdb, err := LoadSMC(rt, s, d, core.RowIndirect)
	if err != nil {
		t.Fatal(err)
	}
	q := NewSMCQueries(sdb)
	lo, hi := types.Date(0), types.Date(1<<30) // full-range window
	want, err := q.Q6WindowParCtx(context.Background(), s, lo, hi, 1, false)
	if err != nil {
		t.Fatal(err)
	}

	// Pre-canceled: no block work, prompt typed return.
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := q.Q6WindowParCtx(cctx, s, lo, hi, 4, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled Q6WindowParCtx = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("pre-canceled scan took %v to return", d)
	}

	// Staggered mid-scan cancellations: every run either completes with
	// the oracle sum or returns the cancellation, always promptly.
	const rounds = 50
	canceled, completed := 0, 0
	for i := 0; i < rounds; i++ {
		cctx, cancel := context.WithCancel(context.Background())
		delay := time.Duration(i%10) * 100 * time.Microsecond
		if i%10 == 9 {
			delay = 50 * time.Millisecond // long enough that the scan wins
		}
		timer := time.AfterFunc(delay, cancel)
		t0 := time.Now()
		sum, err := q.Q6WindowParCtx(cctx, s, lo, hi, 4, i%2 == 0)
		latency := time.Since(t0)
		timer.Stop()
		cancel()
		if latency > 5*time.Second {
			t.Fatalf("round %d: canceled scan took %v to return", i, latency)
		}
		switch {
		case err == nil:
			completed++
			if sum != want {
				t.Fatalf("round %d: completed scan = %v, want %v", i, sum, want)
			}
		case errors.Is(err, context.Canceled):
			canceled++
		default:
			t.Fatalf("round %d: unexpected error %v", i, err)
		}
	}
	t.Logf("%d canceled, %d completed of %d rounds", canceled, completed, rounds)
	if completed == 0 {
		t.Fatal("no round outran its cancellation; the 50ms rounds should complete")
	}

	// An uncancelled ParCtx run after the storm still matches the oracle.
	if sum, err := q.Q6WindowParCtx(context.Background(), s, lo, hi, 4, true); err != nil || sum != want {
		t.Fatalf("uncancelled Q6WindowParCtx after the storm = (%v, %v), want (%v, nil)", sum, err, want)
	}

	// Zero leaks across the whole storm.
	assertQuiesced(t, rt)
}

// assertQuiesced fails the test when the runtime snapshot shows a pooled
// session, an epoch pin or a query arena still out after every query
// returned.
func assertQuiesced(t *testing.T, rt *core.Runtime) {
	t.Helper()
	st := rt.StatsSnapshot()
	if st.SessionsLeased != st.SessionsReturned {
		t.Fatalf("session pool unbalanced: %d leased, %d returned", st.SessionsLeased, st.SessionsReturned)
	}
	if st.EpochPins != 0 {
		t.Fatalf("%d epoch pins leaked", st.EpochPins)
	}
	for _, ap := range st.ArenaPools {
		if ap.Leases != ap.Returns {
			t.Fatalf("arena pool %q unbalanced: %d leases, %d returns", ap.Name, ap.Leases, ap.Returns)
		}
	}
}

// TestParallelQ6WindowCancelOracle: staggered concurrent Q6-window
// queries — different windows, pushdown on and off, some with a racing
// cancel — must each return the byte-identical sum of their serial
// oracle, across many cycles. A sibling's cancellation must never leak
// into a query that was not canceled, and the session pool and epoch
// pins balance afterwards. Run with -race in CI.
func TestParallelQ6WindowCancelOracle(t *testing.T) {
	d := testDataset(t)
	rt := core.MustRuntime(core.Options{HeapBackend: true})
	defer rt.Close()
	s := rt.MustSession()
	defer s.Close()
	sdb, err := LoadSMC(rt, s, d, core.RowIndirect)
	if err != nil {
		t.Fatal(err)
	}
	q := NewSMCQueries(sdb)

	dates := make([]types.Date, len(d.Lineitems))
	for i := range d.Lineitems {
		dates[i] = d.Lineitems[i].ShipDate
	}
	sort.Slice(dates, func(i, j int) bool { return dates[i] < dates[j] })
	quantile := func(pct int) types.Date { return dates[(len(dates)-1)*pct/100] }
	windows := [][2]types.Date{
		{dates[0], quantile(10)},
		{dates[0], quantile(60)},
		{dates[0], quantile(100)},
	}
	oracles := make([]decimal.Dec128, len(windows))
	for i, w := range windows {
		if oracles[i], err = q.Q6WindowParCtx(context.Background(), s, w[0], w[1], 1, false); err != nil {
			t.Fatal(err)
		}
	}
	if oracles[2] == (decimal.Dec128{}) {
		t.Fatal("full-window oracle sum is zero — degenerate dataset")
	}

	cycles := 60
	if testing.Short() {
		cycles = 12
	}
	const queriesPerCycle = 5
	type result struct {
		i   int
		sum decimal.Dec128
		err error
	}
	for c := 0; c < cycles; c++ {
		results := make(chan result, queriesPerCycle)
		for i := 0; i < queriesPerCycle; i++ {
			go func(i int) {
				qs := rt.MustSession()
				win := (c + i) % len(windows)
				cctx, cancel := context.WithCancel(context.Background())
				if (c+i)%7 == 0 {
					go cancel() // racing cancel: cancellation or completion, both legal
				}
				sum, err := q.Q6WindowParCtx(cctx, qs, windows[win][0], windows[win][1], 2, i%2 == 0)
				cancel()
				qs.Close() // before the send: the ledger check below must see it
				results <- result{i, sum, err}
			}(i)
		}
		for i := 0; i < queriesPerCycle; i++ {
			r := <-results
			if r.err != nil {
				if errors.Is(r.err, context.Canceled) && (c+r.i)%7 == 0 {
					continue // discarded; only leak-freedom matters
				}
				t.Fatalf("cycle %d query %d: %v", c, r.i, r.err)
			}
			if win := (c + r.i) % len(windows); r.sum != oracles[win] {
				t.Fatalf("cycle %d query %d window %d: sum %v diverges from serial oracle %v",
					c, r.i, win, r.sum, oracles[win])
			}
		}
	}
	assertQuiesced(t, rt)
}
