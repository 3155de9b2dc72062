package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/decimal"
	"repro/internal/mem"
	"repro/internal/serve"
	"repro/internal/tpch"
	"repro/internal/types"
)

// The governance figure (beyond-paper): graceful degradation under a
// shrinking memory budget. The served q6window path runs under budgets
// swept from unbounded down to 0.9x the measured governed working set;
// at every level the process must keep its invariants — zero OOMs, zero
// panics, every success byte-identical to the serial oracle, every
// failure the typed 503 budget_exceeded with a reclaim-rate-derived
// Retry-After — while the governor's degradation ladder shows up in the
// counters: arena retention and the session pool shrink before any
// admission fails, and the pressure level escalates with the deficit.

// GovernPoint is one budget level's measurement.
type GovernPoint struct {
	// Label names the budget level; Budget is the configured byte limit
	// (0 = unbounded) and WorkingSet the governed total it was derived
	// from.
	Label      string
	Budget     int64
	WorkingSet int64
	// Request outcomes: successes (oracle-asserted) vs typed budget
	// rejections; RejectedFrac is rejections over total. Anything else —
	// a 500, a panic, an untyped failure — aborts the figure.
	Requests     int
	Rejected     int
	RejectedFrac float64
	// Latency of successful requests through the full served stack.
	P50Ms float64
	P99Ms float64
	// Governor activity during the level (deltas): ladder passes, arena
	// bytes trimmed, sessions closed, restores after pressure cleared.
	Rebalances      int64
	ArenaBytesFreed int64
	SessionsTrimmed int64
	Restores        int64
	// Level is the pressure classification when the batch finished.
	Level string
}

// GovernResult is the adaptive-governance figure. The pressured levels
// queue admissions by design: their latencies are backpressure, not
// regressions.
type GovernResult struct {
	SF         float64
	CPUs       int
	Reps       int
	WorkingSet int64
	Points     []GovernPoint
}

// governBudgets is the sweep: unbounded, comfortable headroom, just
// above the working set, and below it (the level that forces the full
// ladder).
var governBudgets = []struct {
	label string
	frac  float64 // of the measured working set; 0 = unbounded
}{
	{"unbounded", 0},
	{"2x", 2.0},
	{"1.25x", 1.25},
	{"0.9x", 0.9},
}

// governClients is the fixed concurrent-client count per level.
const governClients = 16

// FigureGovern measures graceful degradation end to end: serve q6window
// to concurrent clients while the memory budget steps down across the
// measured working set.
func FigureGovern(o Options) (*GovernResult, error) {
	o = o.WithDefaults()
	data := tpch.Generate(o.SF, o.Seed)

	sorted := *data
	sorted.Lineitems = append([]tpch.LineitemRow(nil), data.Lineitems...)
	sort.SliceStable(sorted.Lineitems, func(i, j int) bool {
		return sorted.Lineitems[i].ShipDate < sorted.Lineitems[j].ShipDate
	})
	n := len(sorted.Lineitems)
	if n == 0 {
		return nil, fmt.Errorf("empty lineitem table at SF=%v", o.SF)
	}
	dateAt := func(frac float64) types.Date { return sorted.Lineitems[int(float64(n-1)*frac)].ShipDate }

	rt, err := core.NewRuntime(core.Options{HeapBackend: o.HeapBackend})
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	s := rt.MustSession()
	defer s.Close()
	db, err := tpch.LoadSMC(rt, s, &sorted, core.RowIndirect)
	if err != nil {
		return nil, err
	}
	q := tpch.NewSMCQueries(db)

	type window struct {
		body   []byte
		oracle decimal.Dec128
	}
	bounds := [][2]types.Date{
		{dateAt(0), dateAt(0.5)},
		{dateAt(0.25), dateAt(0.75)},
		{dateAt(0), dateAt(0.1)},
		{dateAt(0.4), dateAt(0.6)},
	}
	windows := make([]window, len(bounds))
	for i, b := range bounds {
		body, err := json.Marshal(serve.Q6WindowParams{Lo: b[0], Hi: b[1]})
		if err != nil {
			return nil, err
		}
		oracle, err := q.Q6WindowParCtx(context.Background(), s, b[0], b[1], 1, true)
		if err != nil {
			return nil, err
		}
		windows[i] = window{body: body, oracle: oracle}
	}

	mt := rt.StartMaintainer(mem.MaintainerConfig{Interval: 10 * time.Millisecond})
	defer mt.Stop()
	srv := serve.New(rt, q, mt, serve.Config{
		MaxConcurrent:  governClients * 2,
		DefaultTimeout: 5 * time.Minute,
		DefaultWorkers: 1,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	defer hs.Shutdown(context.Background())
	base := "http://" + ln.Addr().String()
	url := base + "/query/q6window"

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        governClients * 2,
		MaxIdleConnsPerHost: governClients * 2,
	}}

	// doOne runs one served request. A 200 must match the serial oracle;
	// a 503 must be the typed budget rejection with a clamped integer
	// Retry-After — the only failure the governance contract allows.
	doOne := func(w window) (d time.Duration, rejected bool, err error) {
		t0 := time.Now()
		resp, err := client.Post(url, "application/json", bytes.NewReader(w.body))
		if err != nil {
			return 0, false, err
		}
		defer func() {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
		switch resp.StatusCode {
		case http.StatusOK:
			var sum serve.SumResponse
			if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
				return 0, false, err
			}
			if sum.Sum != w.oracle {
				return 0, false, fmt.Errorf("served sum %v diverges from serial oracle %v", sum.Sum, w.oracle)
			}
			return time.Since(t0), false, nil
		case http.StatusServiceUnavailable:
			var env serve.ErrorEnvelope
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				return 0, false, err
			}
			if env.Error.Code != "budget_exceeded" {
				return 0, false, fmt.Errorf("503 with code %q, want budget_exceeded", env.Error.Code)
			}
			secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
			if err != nil || secs < 1 || secs > 30 {
				return 0, false, fmt.Errorf("budget 503 Retry-After %q outside the [1, 30] clamp", resp.Header.Get("Retry-After"))
			}
			return 0, true, nil
		default:
			return 0, false, fmt.Errorf("status %d — only 200 and typed 503 are allowed under pressure", resp.StatusCode)
		}
	}

	// Warm the path, then park arena slack: Q3's hash join leases arenas
	// and returns them to the registered pool, so the working set the
	// budgets derive from includes real arena retention for the ladder to
	// trim.
	for _, w := range windows {
		if _, _, err := doOne(w); err != nil {
			return nil, fmt.Errorf("warmup: %w", err)
		}
	}
	for i := 0; i < 4; i++ {
		resp, err := client.Post(base+"/query/q3", "application/json", bytes.NewReader([]byte(`{}`)))
		if err != nil {
			return nil, fmt.Errorf("q3 warmup: %w", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("q3 warmup: status %d", resp.StatusCode)
		}
	}

	ws := rt.StatsSnapshot().Governor.GovernedUsed
	if ws <= 0 {
		return nil, fmt.Errorf("degenerate working set %d", ws)
	}

	perClient := max(2, o.Reps)
	res := &GovernResult{SF: o.SF, CPUs: runtime.NumCPU(), Reps: o.Reps, WorkingSet: ws}
	for _, lvl := range governBudgets {
		budget := int64(0)
		if lvl.frac > 0 {
			budget = int64(lvl.frac * float64(ws))
		}
		// Snapshot before the budget lands so the level's deltas include
		// the trims the maintainer runs the moment pressure appears.
		before := rt.StatsSnapshot().Governor
		rt.SetMemoryBudget(budget)
		// Let the maintainer reclassify (and, stepping back up, restore
		// bounds) before the batch.
		time.Sleep(30 * time.Millisecond)

		total := governClients * perClient
		lats := make([]time.Duration, 0, total)
		var latMu sync.Mutex
		rejects := make([]int, governClients)
		errs := make([]error, governClients)
		var start, done sync.WaitGroup
		start.Add(1)
		done.Add(governClients)
		for c := 0; c < governClients; c++ {
			go func(c int) {
				defer done.Done()
				start.Wait()
				for r := 0; r < perClient; r++ {
					d, rejected, err := doOne(windows[(c+r)%len(windows)])
					if err != nil {
						errs[c] = fmt.Errorf("client %d req %d: %w", c, r, err)
						return
					}
					if rejected {
						rejects[c]++
						continue
					}
					latMu.Lock()
					lats = append(lats, d)
					latMu.Unlock()
				}
			}(c)
		}
		runtime.GC()
		start.Done()
		done.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("budget %s: %w", lvl.label, err)
			}
		}
		after := rt.StatsSnapshot().Governor

		rejected := 0
		for _, r := range rejects {
			rejected += r
		}
		pt := GovernPoint{
			Label:           lvl.label,
			Budget:          budget,
			WorkingSet:      ws,
			Requests:        total,
			Rejected:        rejected,
			RejectedFrac:    float64(rejected) / float64(total),
			Rebalances:      after.Rebalances - before.Rebalances,
			ArenaBytesFreed: after.ArenaBytesFreed - before.ArenaBytesFreed,
			SessionsTrimmed: after.SessionsTrimmed - before.SessionsTrimmed,
			Restores:        after.Restores - before.Restores,
			Level:           after.Level,
		}
		if len(lats) > 0 {
			sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
			pt.P50Ms = msF(lats[len(lats)/2])
			pt.P99Ms = msF(lats[(len(lats)*99+99)/100-1])
		}
		// Shrink-before-fail: by the time any admission failed, the
		// ladder must already have given bytes back (this or an earlier
		// level — the sweep tightens monotonically).
		if rejected > 0 && after.ArenaBytesFreed == 0 && after.SessionsTrimmed == 0 {
			return nil, fmt.Errorf("budget %s: %d admissions failed before any arena/session trim", lvl.label, rejected)
		}
		res.Points = append(res.Points, pt)
	}
	rt.SetMemoryBudget(0)
	return res, nil
}

// Render emits the budget-sweep table.
func (r *GovernResult) Render() *Table {
	t := &Table{
		Title: fmt.Sprintf("Adaptive memory governance — SF=%v, %d CPUs (served q6window under shrinking budgets, working set %d bytes)",
			r.SF, r.CPUs, r.WorkingSet),
		Columns: []string{"budget", "bytes", "requests", "rejected", "p50 ms", "p99 ms", "arena freed", "sessions trimmed", "rebalances", "level"},
		Notes: []string{
			"every success asserted identical to the serial oracle; every failure a typed 503 budget_exceeded with clamped Retry-After",
			"arena retention and the session pool shrink before any admission fails (the degradation ladder)",
		},
	}
	for _, pt := range r.Points {
		t.Rows = append(t.Rows, []string{
			pt.Label,
			fmt.Sprintf("%d", pt.Budget),
			fmt.Sprintf("%d", pt.Requests),
			fmt.Sprintf("%d (%.0f%%)", pt.Rejected, pt.RejectedFrac*100),
			fmtMs(pt.P50Ms),
			fmtMs(pt.P99Ms),
			fmt.Sprintf("%d", pt.ArenaBytesFreed),
			fmt.Sprintf("%d", pt.SessionsTrimmed),
			fmt.Sprintf("%d", pt.Rebalances),
			pt.Level,
		})
	}
	return t
}
