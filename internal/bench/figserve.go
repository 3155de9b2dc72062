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
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/decimal"
	"repro/internal/mem"
	"repro/internal/serve"
	"repro/internal/tpch"
	"repro/internal/types"
)

// The serve figure (beyond-paper): the query service front door under
// concurrent load. A real HTTP server (internal/serve) runs over a
// loopback listener with the background Maintainer active — the full
// serving posture — and swarms of concurrent clients issue
// parameterized Q6-style windowed revenue requests drawn from a fixed
// window set. Every response's sum is asserted byte-identical to the
// serial (un-served) oracle for its window, so the figure can only
// measure a semantics-preserving stack: HTTP + JSON + admission may add
// latency, never wrong answers. The sweep reports p50/p99 latency and
// aggregate qps per concurrency level.

// ServePoint is one concurrency level's measurement.
type ServePoint struct {
	Clients  int `json:"clients"`
	Requests int `json:"requests"`
	// Request latency through the full served stack, and the batch's
	// aggregate throughput.
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	WallMs float64 `json:"wall_ms"`
	QPS    float64 `json:"qps"`
	// Front-door admission activity during the level (deltas).
	Admitted  int64 `json:"admitted"`
	Saturated int64 `json:"saturated"`
}

// ServeResult is the front-door load figure. Points carries one flat
// workers=1 gate point whose "serve_<N>c_p50_ms" keys the benchdiff
// gate diffs (low-concurrency medians only; tails and the storm levels
// live in Detail, where smoke-rep noise would flake a ±30% gate).
type ServeResult struct {
	SF     float64              `json:"sf"`
	CPUs   int                  `json:"cpus"`
	Reps   int                  `json:"reps"`
	Meta   Meta                 `json:"meta"`
	Points []map[string]float64 `json:"points"`
	Detail []ServePoint         `json:"detail"`
}

// serveConcurrency is the client sweep: single caller, dashboard
// fan-out, and two storm levels.
var serveConcurrency = []int{1, 8, 64, 512}

// FigureServe measures the served q6window path end to end: open a
// listener, start the Maintainer, and drive each concurrency level's
// clients in a closed loop (every client issues its requests
// back-to-back, cycling a fixed window set).
func FigureServe(o Options) (*ServeResult, error) {
	o = o.WithDefaults()
	data := tpch.Generate(o.SF, o.Seed)

	// Date-sorted load: tight synopses make the window pushdown real.
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

	// The request mix: four windows of distinct selectivity, each with
	// its serial oracle sum computed before the server ever runs.
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

	mt := rt.StartMaintainer(mem.MaintainerConfig{Interval: 50 * time.Millisecond})
	defer mt.Stop()
	maxClients := serveConcurrency[len(serveConcurrency)-1]
	srv := serve.New(rt, q, mt, serve.Config{
		// Admission sized to the sweep: this figure measures serving
		// latency, not the 429 path (the robustness suite owns that).
		MaxConcurrent:  maxClients * 2,
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
	url := "http://" + ln.Addr().String() + "/query/q6window"

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        maxClients * 2,
		MaxIdleConnsPerHost: maxClients * 2,
	}}
	doOne := func(w window) (time.Duration, error) {
		t0 := time.Now()
		resp, err := client.Post(url, "application/json", bytes.NewReader(w.body))
		if err != nil {
			return 0, err
		}
		var sum serve.SumResponse
		decErr := json.NewDecoder(resp.Body).Decode(&sum)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		d := time.Since(t0)
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("status %d", resp.StatusCode)
		}
		if decErr != nil {
			return 0, decErr
		}
		if sum.Sum != w.oracle {
			return 0, fmt.Errorf("served sum %v diverges from serial oracle %v", sum.Sum, w.oracle)
		}
		return d, nil
	}

	// Warm the path (codegen, connections) before any timed level.
	for _, w := range windows {
		if _, err := doOne(w); err != nil {
			return nil, fmt.Errorf("warmup: %w", err)
		}
	}

	perClient := max(2, o.Reps)
	res := &ServeResult{SF: o.SF, CPUs: runtime.NumCPU(), Reps: o.Reps, Meta: CurrentMeta()}
	gate := map[string]float64{"workers": 1}
	res.Points = []map[string]float64{gate}
	for _, nc := range serveConcurrency {
		total := nc * perClient
		lats := make([]time.Duration, total)
		errs := make([]error, nc)
		before := rt.StatsSnapshot()
		var start, done sync.WaitGroup
		start.Add(1)
		done.Add(nc)
		for c := 0; c < nc; c++ {
			go func(c int) {
				defer done.Done()
				start.Wait()
				for r := 0; r < perClient; r++ {
					d, err := doOne(windows[(c+r)%len(windows)])
					if err != nil {
						errs[c] = fmt.Errorf("client %d req %d: %w", c, r, err)
						return
					}
					lats[c*perClient+r] = d
				}
			}(c)
		}
		runtime.GC()
		t0 := time.Now()
		start.Done()
		done.Wait()
		wall := time.Since(t0)
		for _, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("%d clients: %w", nc, err)
			}
		}
		after := rt.StatsSnapshot()

		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		pt := ServePoint{
			Clients:   nc,
			Requests:  total,
			P50Ms:     msF(lats[total/2]),
			P99Ms:     msF(lats[(total*99+99)/100-1]), // ceil(0.99·total)-th sample
			WallMs:    msF(wall),
			Admitted:  after.Serve.Admitted - before.Serve.Admitted,
			Saturated: after.Serve.Saturated - before.Serve.Saturated,
		}
		if wall > 0 {
			pt.QPS = float64(total) / wall.Seconds()
		}
		if pt.Saturated > 0 {
			return nil, fmt.Errorf("%d clients: %d requests saturated under a %d-slot gate", nc, pt.Saturated, maxClients*2)
		}
		// Gate on the low-concurrency medians only: p99 over a smoke
		// rep's few samples swings well past the gate's ±30%, and the
		// storm levels are wall-clock-shared noise by design.
		if nc <= 8 {
			gate[fmt.Sprintf("serve_%dc_p50_ms", nc)] = pt.P50Ms
		}
		res.Detail = append(res.Detail, pt)
	}
	return res, nil
}

// Render emits the sweep table.
func (r *ServeResult) Render() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Query service front door — SF=%v, %d CPUs (served q6window, workers=1 per request)", r.SF, r.CPUs),
		Columns: []string{"clients", "requests", "p50 ms", "p99 ms", "qps", "wall ms"},
		Notes: []string{
			"every served sum asserted identical to the serial oracle for its window",
		},
	}
	for _, pt := range r.Detail {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", pt.Clients),
			fmt.Sprintf("%d", pt.Requests),
			fmtMs(pt.P50Ms),
			fmtMs(pt.P99Ms),
			fmt.Sprintf("%.0f", pt.QPS),
			fmtMs(pt.WallMs),
		})
	}
	return t
}

// WriteJSON emits the machine-readable result (BENCH_serve.json).
func (r *ServeResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
