package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"slices"

	"repro/internal/core"
	"repro/internal/decimal"
	"repro/internal/mem"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/tpch"
	"repro/internal/types"
)

// poolSize is the number of seeded parameter sets per step of a round.
const poolSize = 32

// workload is one traffic mix. A round is one pass through script; it is
// the unit of latency, so every sample is the same work.
type workload struct {
	name, why string
	// dateOrdered loads lineitem in ship-date order, which makes the block
	// synopses tight; generator order leaves them covering every date.
	dateOrdered bool
	// churn runs the refresh writer beside the readers.
	churn bool
	// pipe serves the callers in process instead of over loopback TCP.
	pipe bool
	// tailPct is the percentile loaded_tail_ms reports: the highest of
	// 95/99 that keeps at least ten samples beyond it on a 2-core host.
	// Frozen by the change that added the benchmark.
	tailPct float64
	script  []step
}

// step is one request of a round: an endpoint and, for windowed scans,
// the share of the table's rows the window covers.
type step struct {
	ep   *endpoint
	frac float64
}

var workloads = []workload{
	{
		name: "window_pruned", dateOrdered: true, tailPct: 99,
		why: "narrow date windows over date-ordered blocks: pruning, the decision pass and the HTTP front door do the work, the kernel little",
		script: []step{
			{epQ6Window, 0.01}, {epQ6Window, 0.02}, {epQ6Window, 0.05}, {epQ6Window, 0.10},
			{epQ6Window, 0.01}, {epQ6Window, 0.02}, {epQ6Window, 0.05}, {epQ6Window, 0.10},
		},
	},
	{
		name: "full_scan", tailPct: 95,
		why:    "q1, q6 and a half-table window over generator-order blocks: nothing prunes, so kernels, worker scaling and the share pass dominate",
		script: []step{{epQ1, 0}, {epQ6, 0}, {epQ6Window, 0.50}},
	},
	{
		name: "join_mix", tailPct: 95,
		why: "q3 and q10 reference joins: pipeline stages, arenas, partitioned tables and key-set pruning, where allocation-path changes show and scan kernels do not",
		// Each query twice: a query allocates 2.7 MB and the collector runs
		// every 4 MB, so a round of two met one collection or two, and its
		// median sat in the gap between the two.
		script: []step{{epQ3, 0}, {epQ10, 0}, {epQ3, 0}, {epQ10, 0}},
	},
	{
		name: "stream_rows", dateOrdered: true, pipe: true, tailPct: 95,
		why: "four NDJSON row streams over 1% windows: a sub-millisecond scan behind a per-row encode and flush; served in process, where the kernel's socket path cannot drown them",
		// Four streams to a round: a stream and its check allocate 1.8 MB
		// and the collector runs every 4 MB, so a single stream either meets
		// a collection or does not, and the median of those two is a coin
		// toss.
		script: []step{{epQ6Rows, 0.01}, {epQ6Rows, 0.01}, {epQ6Rows, 0.01}, {epQ6Rows, 0.01}},
	},
	{
		name: "churn_mix", dateOrdered: true, churn: true, tailPct: 95,
		why:    "window and full scans while a writer applies a refresh pair every 250 ms and the Maintainer compacts: write path, compaction stalls and pruning under churn",
		script: []step{{epQ6Window, 0.02}, {epQ6Window, 0.10}, {epQ6, 0}},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// request is one seeded parameter set for one endpoint, with the check
// its served answer must pass.
type request struct {
	ep   *endpoint
	body []byte
	// The same parameters, typed, for the direct driver calls of the
	// traced ladder: p for q1/q3/q6/q10, lo..hi for the windowed scans.
	p      tpch.Params
	lo, hi types.Date
	// check compares a served response body with the oracle; set by
	// endpoint.oracle in set-up (and again after churn).
	check func(body []byte) error
}

// scan is one predicated block scan a driver makes; the scan skeleton
// replays them with an empty kernel.
type scan struct {
	src  query.PredSource
	pred *mem.ScanPredicate
}

// endpoint ties a served path to the engine calls behind it.
type endpoint struct {
	name string // "q6window"; its driver time is reported as tpch.<name>_ms
	path string
	// params draws one seeded parameter set.
	params func(g *paramGen, frac float64) *request
	// drive makes the driver call the served handler makes and returns
	// the typed response the handler would encode.
	drive func(ctx context.Context, w *world, s *core.Session, r *request, workers int) (any, error)
	// oracle answers r on the serial, unpruned, single-worker path and
	// returns the check for a served body.
	oracle func(w *world, r *request) func(body []byte) error
	// scans lists the block scans drive makes for r.
	scans func(w *world, r *request) []scan
	// encode writes resp the way the handler does and returns the number
	// of streamed rows (0 for a buffered response).
	encode func(w io.Writer, resp any) (int, error)
	// wellFormed is the check used while rows move under churn: the
	// answer cannot be known in advance, its shape can.
	wellFormed func(body []byte) error
}

// Date and decimal extremes for one-sided pushdown intervals, as the
// compiled drivers build them.
const (
	dateMin = types.Date(math.MinInt32)
	dateMax = types.Date(math.MaxInt32)
)

var (
	decKeyMin = decimal.Dec128{Lo: 0, Hi: math.MinInt64}
	oneUnit   = decimal.FromUnits(1)
	cent      = decimal.MustParse("0.01")
)

// paramGen draws request parameters from the run's seed.
type paramGen struct {
	rng *rand.Rand
	// dates are the loaded lineitems' ship dates in ascending order;
	// windows are cut at row quantiles so a window's share of the rows is
	// what the step says.
	dates []types.Date
}

func (g *paramGen) window(frac float64) (lo, hi types.Date) {
	n := len(g.dates)
	span := max(1, int(frac*float64(n)))
	start := g.rng.IntN(n - span + 1)
	return g.dates[start], g.dates[start+span-1]
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // a params struct that cannot marshal is a bug here
	}
	return b
}

func encodeBuffered(w io.Writer, resp any) (int, error) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ") // as serve.writeJSON does
	return 0, enc.Encode(resp)
}

func checkSum(want decimal.Dec128) func([]byte) error {
	return func(body []byte) error {
		var got serve.SumResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("sum response: %w", err)
		}
		if got.Sum != want {
			return fmt.Errorf("%w: sum %v, oracle %v", errWrongAnswer, got.Sum, want)
		}
		return nil
	}
}

func wellFormedSum(body []byte) error {
	var got serve.SumResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("sum response: %w", err)
	}
	return nil
}

// checkRows compares a buffered row set with the oracle's after sorting
// both the same way.
func checkRows[R comparable](want []R, order func(a, b R) int) func([]byte) error {
	want = slices.Clone(want)
	slices.SortFunc(want, order)
	return func(body []byte) error {
		var got serve.RowsResponse[R]
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("rows response: %w", err)
		}
		slices.SortFunc(got.Rows, order)
		if !slices.Equal(got.Rows, want) {
			return fmt.Errorf("%w: %d rows differ from the oracle's %d", errWrongAnswer, len(got.Rows), len(want))
		}
		return nil
	}
}

// hitHash folds one streamed row into an order-independent digest.
func hitHash(h tpch.Q6WindowHit) uint64 {
	x := uint64(h.OrderKey)*0x9e3779b97f4a7c15 ^ uint64(uint32(h.ShipDate))*0xbf58476d1ce4e5b9 ^
		h.Revenue.Lo*0x94d049bb133111eb ^ uint64(h.Revenue.Hi)
	x ^= x >> 31
	return x * 0xd6e8feb86659fd93
}

// streamLine is any line of the NDJSON stream: a row or the trailer.
type streamLine struct {
	tpch.Q6WindowHit
	serve.StreamTrailer
}

// checkStream compares a streamed row set with the oracle's as a
// multiset (count plus order-independent digest) and requires the
// integrity trailer, last, with the oracle's row count. With no oracle
// (want == nil) it checks the trailer against the rows actually seen.
func checkStream(want []tpch.Q6WindowHit) func([]byte) error {
	var wantSum uint64
	for _, h := range want {
		wantSum += hitHash(h)
	}
	return func(body []byte) error {
		var n int64
		var sum uint64
		var trailer *serve.StreamTrailer
		dec := json.NewDecoder(bytes.NewReader(body))
		for dec.More() {
			if trailer != nil {
				return fmt.Errorf("%w: line after the stream trailer", errWrongAnswer)
			}
			var l streamLine
			if err := dec.Decode(&l); err != nil {
				return fmt.Errorf("stream line: %w", err)
			}
			if l.Done || l.Error != nil {
				trailer = &l.StreamTrailer
				continue
			}
			n++
			sum += hitHash(l.Q6WindowHit)
		}
		switch {
		case trailer == nil:
			return fmt.Errorf("%w: stream ended without a trailer", errWrongAnswer)
		case trailer.Error != nil:
			return fmt.Errorf("stream error trailer: %s", trailer.Error.Message)
		case trailer.Rows != n:
			return fmt.Errorf("%w: trailer says %d rows, stream carried %d", errWrongAnswer, trailer.Rows, n)
		case want != nil && (n != int64(len(want)) || sum != wantSum):
			return fmt.Errorf("%w: streamed %d rows differ from the oracle's %d", errWrongAnswer, n, len(want))
		}
		return nil
	}
}

func windowRequest(g *paramGen, frac float64) *request {
	lo, hi := g.window(frac)
	return &request{lo: lo, hi: hi, body: mustJSON(serve.Q6WindowParams{Lo: lo, Hi: hi})}
}

func windowScans(w *world, r *request) []scan {
	return []scan{{w.db.Lineitems, w.db.Lineitems.Predicate().DateRange("ShipDate", r.lo, r.hi)}}
}

var endpoints = []*endpoint{epQ1, epQ3, epQ6, epQ10, epQ6Window, epQ6Rows}

var (
	epQ1 = &endpoint{
		name: "q1", path: "/query/q1",
		params: func(g *paramGen, _ float64) *request {
			p := tpch.DefaultParams()
			p.Q1Delta = 60 + g.rng.IntN(61)
			return &request{p: p, body: mustJSON(serve.Q1Params{Delta: p.Q1Delta})}
		},
		drive: func(ctx context.Context, w *world, s *core.Session, r *request, workers int) (any, error) {
			rows, err := w.q.Q1ParCtx(ctx, s, r.p, workers)
			return &serve.RowsResponse[tpch.Q1Row]{Rows: rows}, err
		},
		oracle: func(w *world, r *request) func([]byte) error {
			return checkRows(w.q.Q1(w.sess, r.p), func(a, b tpch.Q1Row) int {
				return cmp.Or(cmp.Compare(a.ReturnFlag, b.ReturnFlag), cmp.Compare(a.LineStatus, b.LineStatus))
			})
		},
		scans: func(w *world, r *request) []scan {
			return []scan{{w.db.Lineitems, w.db.Lineitems.Predicate().DateRange("ShipDate", dateMin, r.p.Q1Cutoff())}}
		},
		encode: encodeBuffered,
	}
	epQ3 = &endpoint{
		name: "q3", path: "/query/q3",
		params: func(g *paramGen, _ float64) *request {
			p := tpch.DefaultParams()
			p.Q3Segment = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}[g.rng.IntN(5)]
			p.Q3Date = types.MustDate("1995-03-01").AddDays(g.rng.IntN(31))
			return &request{p: p, body: mustJSON(serve.Q3Params{Segment: p.Q3Segment, Date: p.Q3Date})}
		},
		drive: func(ctx context.Context, w *world, s *core.Session, r *request, workers int) (any, error) {
			rows, err := w.q.Q3ParCtx(ctx, s, r.p, workers)
			return &serve.RowsResponse[tpch.Q3Row]{Rows: rows}, err
		},
		oracle: func(w *world, r *request) func([]byte) error {
			return checkRows(w.q.Q3(w.sess, r.p), func(a, b tpch.Q3Row) int { return cmp.Compare(a.OrderKey, b.OrderKey) })
		},
		scans: func(w *world, r *request) []scan {
			return []scan{
				{w.db.Orders, w.db.Orders.Predicate().DateRange("OrderDate", dateMin, r.p.Q3Date-1)},
				{w.db.Lineitems, w.db.Lineitems.Predicate().DateRange("ShipDate", r.p.Q3Date+1, dateMax)},
			}
		},
		encode: encodeBuffered,
	}
	epQ6 = &endpoint{
		name: "q6", path: "/query/q6",
		params: func(g *paramGen, _ float64) *request {
			p := tpch.DefaultParams()
			p.Q6Date = types.MakeDate(1993+g.rng.IntN(5), 1, 1)
			p.Q6Discount = decimal.FromUnits(int64(2+g.rng.IntN(8)) * 100)
			p.Q6Quantity = decimal.FromInt64(int64(24 + g.rng.IntN(2)))
			return &request{p: p, body: mustJSON(serve.Q6Params{Date: p.Q6Date, Discount: p.Q6Discount, Quantity: p.Q6Quantity})}
		},
		drive: func(ctx context.Context, w *world, s *core.Session, r *request, workers int) (any, error) {
			sum, err := w.q.Q6ParCtx(ctx, s, r.p, workers)
			return &serve.SumResponse{Sum: sum}, err
		},
		oracle: func(w *world, r *request) func([]byte) error { return checkSum(w.q.Q6(w.sess, r.p)) },
		scans: func(w *world, r *request) []scan {
			return []scan{{w.db.Lineitems, w.db.Lineitems.Predicate().
				DateRange("ShipDate", r.p.Q6Date, r.p.Q6Date.AddYears(1)-1).
				DecimalRange("Discount", r.p.Q6Discount.Sub(cent), r.p.Q6Discount.Add(cent)).
				DecimalRange("Quantity", decKeyMin, r.p.Q6Quantity.Sub(oneUnit))}}
		},
		encode:     encodeBuffered,
		wellFormed: wellFormedSum,
	}
	epQ10 = &endpoint{
		name: "q10", path: "/query/q10",
		params: func(g *paramGen, _ float64) *request {
			p := tpch.DefaultParams()
			p.Q10Date = types.MakeDate(1993, 2, 1).AddMonths(g.rng.IntN(24))
			return &request{p: p, body: mustJSON(serve.Q10Params{Date: p.Q10Date})}
		},
		drive: func(ctx context.Context, w *world, s *core.Session, r *request, workers int) (any, error) {
			rows, err := w.q.Q10ParCtx(ctx, s, r.p, workers)
			return &serve.RowsResponse[tpch.Q10Row]{Rows: rows}, err
		},
		oracle: func(w *world, r *request) func([]byte) error {
			return checkRows(w.q.Q10(w.sess, r.p), func(a, b tpch.Q10Row) int { return cmp.Compare(a.CustKey, b.CustKey) })
		},
		scans: func(w *world, r *request) []scan {
			return []scan{
				{w.db.Orders, w.db.Orders.Predicate().DateRange("OrderDate", r.p.Q10Date, r.p.Q10Date.AddMonths(3)-1)},
				{w.db.Lineitems, w.db.Lineitems.Predicate().Int32Range("ReturnFlag", 'R', 'R')},
				{w.db.Customers, nil},
			}
		},
		encode: encodeBuffered,
	}
	epQ6Window = &endpoint{
		name: "q6window", path: "/query/q6window",
		params: windowRequest,
		drive: func(ctx context.Context, w *world, s *core.Session, r *request, workers int) (any, error) {
			sum, err := w.q.Q6WindowSharedCtx(ctx, s, r.lo, r.hi, workers, true)
			return &serve.SumResponse{Sum: sum}, err
		},
		oracle: func(w *world, r *request) func([]byte) error {
			return checkSum(w.q.Q6WindowPar(w.sess, r.lo, r.hi, 1, false))
		},
		scans:      windowScans,
		encode:     encodeBuffered,
		wellFormed: wellFormedSum,
	}
	epQ6Rows = &endpoint{
		name: "q6rows", path: "/query/q6window/rows",
		params: windowRequest,
		drive: func(ctx context.Context, w *world, s *core.Session, r *request, workers int) (any, error) {
			return collectHits(ctx, w, s, r, workers, true)
		},
		oracle: func(w *world, r *request) func([]byte) error {
			want, err := collectHits(context.Background(), w, w.sess, r, 1, false)
			if err != nil {
				return func([]byte) error { return fmt.Errorf("stream oracle: %w", err) }
			}
			return checkStream(want)
		},
		scans: windowScans,
		encode: func(w io.Writer, resp any) (int, error) {
			rows := resp.([]tpch.Q6WindowHit)
			enc := json.NewEncoder(w)
			for _, row := range rows {
				if err := enc.Encode(row); err != nil {
					return 0, err
				}
			}
			return len(rows), enc.Encode(serve.StreamTrailer{Done: true, Rows: int64(len(rows))})
		},
		wellFormed: checkStream(nil),
	}
)

// collectHits runs the streaming driver and keeps the rows it hands
// over; the copy is a memmove per block batch.
func collectHits(ctx context.Context, w *world, s *core.Session, r *request, workers int, pushdown bool) ([]tpch.Q6WindowHit, error) {
	var hits []tpch.Q6WindowHit
	err := w.q.Q6WindowRowsCtx(ctx, s, r.lo, r.hi, workers, pushdown, func(rows []tpch.Q6WindowHit) error {
		hits = append(hits, rows...)
		return nil
	})
	return hits, err
}

// genPools draws poolSize parameter sets for each step of the round.
// Steps with the same endpoint and window share get independent draws.
func genPools(wl *workload, g *paramGen) [][]*request {
	pools := make([][]*request, len(wl.script))
	for i, st := range wl.script {
		pools[i] = make([]*request, poolSize)
		for j := range pools[i] {
			pools[i][j] = st.ep.params(g, st.frac)
			pools[i][j].ep = st.ep
		}
	}
	return pools
}

// answer computes every pooled request's oracle on w's current state.
func answer(w *world, pools [][]*request) {
	for _, pool := range pools {
		for _, r := range pool {
			r.check = r.ep.oracle(w, r)
		}
	}
}
