package serve_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/decimal"
	"repro/internal/mem"
	"repro/internal/serve"
	"repro/internal/tpch"
	"repro/internal/types"
)

// testEnv is one served database: a runtime, its compiled queries, a
// running maintainer, and an httptest front door.
type testEnv struct {
	rt  *core.Runtime
	q   *tpch.SMCQueries
	s   *core.Session
	mt  *mem.Maintainer
	srv *serve.Server
	ts  *httptest.Server
}

func newEnv(t testing.TB, sf float64, cfg serve.Config) *testEnv {
	t.Helper()
	rt, err := core.NewRuntime(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	s := rt.MustSession()
	t.Cleanup(func() { s.Close() })
	data := tpch.Generate(sf, 42)
	db, err := tpch.LoadSMC(rt, s, data, core.RowIndirect)
	if err != nil {
		t.Fatal(err)
	}
	q := tpch.NewSMCQueries(db)
	mt := rt.StartMaintainer(mem.MaintainerConfig{Interval: 20 * time.Millisecond})
	t.Cleanup(func() { mt.Stop() })
	srv := serve.New(rt, q, mt, cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return &testEnv{rt: rt, q: q, s: s, mt: mt, srv: srv, ts: ts}
}

// post sends a JSON body and decodes the response into out, returning
// the status code.
func (e *testEnv) post(t *testing.T, path, body string, out any) int {
	t.Helper()
	resp, err := http.Post(e.ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decode: %v", path, err)
		}
	}
	return resp.StatusCode
}

// TestServeQueriesMatchOracles pins every buffered endpoint's default-
// params response to the serial (un-served) driver: the HTTP layer may
// add latency, never rows.
func TestServeQueriesMatchOracles(t *testing.T) {
	e := newEnv(t, 0.001, serve.Config{})
	p := tpch.DefaultParams()

	var q1 serve.RowsResponse[tpch.Q1Row]
	if code := e.post(t, "/query/q1", `{}`, &q1); code != http.StatusOK {
		t.Fatalf("q1 status %d", code)
	}
	want1 := e.q.Q1(e.s, p)
	if fmt.Sprint(q1.Rows) != fmt.Sprint(want1) {
		t.Errorf("q1 rows diverge from serial oracle:\n got %v\nwant %v", q1.Rows, want1)
	}

	var q3 serve.RowsResponse[tpch.Q3Row]
	if code := e.post(t, "/query/q3", `{}`, &q3); code != http.StatusOK {
		t.Fatalf("q3 status %d", code)
	}
	want3 := e.q.Q3(e.s, p)
	if fmt.Sprint(q3.Rows) != fmt.Sprint(want3) {
		t.Errorf("q3 rows diverge:\n got %v\nwant %v", q3.Rows, want3)
	}

	var q6 serve.SumResponse
	if code := e.post(t, "/query/q6", `{}`, &q6); code != http.StatusOK {
		t.Fatalf("q6 status %d", code)
	}
	want6 := e.q.Q6(e.s, p)
	if q6.Sum != want6 {
		t.Errorf("q6 sum = %v, want %v", q6.Sum, want6)
	}
	// A workers knob above epoch.MaxSessions is capped at GOMAXPROCS, not
	// honoured: the query answers like the oracle and leases at most the
	// request session plus one session per capped worker.
	var q6w serve.SumResponse
	leased := e.rt.StatsSnapshot().SessionsLeased
	if code := e.post(t, "/query/q6?workers=4096", `{}`, &q6w); code != http.StatusOK {
		t.Fatalf("q6 workers=4096 status %d", code)
	}
	if q6w.Sum != want6 {
		t.Errorf("q6 workers=4096 sum = %v, want %v", q6w.Sum, want6)
	}
	if n := e.rt.StatsSnapshot().SessionsLeased - leased; n > 1+int64(runtime.GOMAXPROCS(0)) {
		t.Errorf("q6 workers=4096 leased %d sessions, want at most 1+GOMAXPROCS", n)
	}

	var q10 serve.RowsResponse[tpch.Q10Row]
	if code := e.post(t, "/query/q10", `{}`, &q10); code != http.StatusOK {
		t.Fatalf("q10 status %d", code)
	}
	want10 := e.q.Q10(e.s, p)
	if fmt.Sprint(q10.Rows) != fmt.Sprint(want10) {
		t.Errorf("q10 rows diverge:\n got %v\nwant %v", q10.Rows, want10)
	}

	// Typed params actually steer the query: a different Q1 delta changes
	// the cutoff and must match the serial driver at that cutoff.
	p2 := p
	p2.Q1Delta = 300
	var q1b serve.RowsResponse[tpch.Q1Row]
	if code := e.post(t, "/query/q1?workers=2", `{"delta":300}`, &q1b); code != http.StatusOK {
		t.Fatalf("q1 delta status %d", code)
	}
	if want := e.q.Q1(e.s, p2); fmt.Sprint(q1b.Rows) != fmt.Sprint(want) {
		t.Errorf("q1(delta=300) rows diverge:\n got %v\nwant %v", q1b.Rows, want)
	}
}

// TestServeQ6WindowAndStream pins the window endpoint and
// the chunked NDJSON row stream to the same oracle: the streamed
// revenues must sum (exactly — decimal addition) to the buffered sum.
func TestServeQ6WindowAndStream(t *testing.T) {
	e := newEnv(t, 0.001, serve.Config{})
	lo, hi := types.MustDate("1994-01-01"), types.MustDate("1995-06-30")
	oracle, err := e.q.Q6WindowParCtx(context.Background(), e.s, lo, hi, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	// benchmark/ still calls the old name; the forward must not rot.
	if fwd, err := e.q.Q6WindowSharedCtx(context.Background(), e.s, lo, hi, 1, true); err != nil || fwd != oracle {
		t.Fatalf("Q6WindowSharedCtx = (%v, %v), want Q6WindowParCtx's (%v, nil)", fwd, err, oracle)
	}

	var sum serve.SumResponse
	body := fmt.Sprintf(`{"lo":"%s","hi":"%s"}`, lo, hi)
	if code := e.post(t, "/query/q6window", body, &sum); code != http.StatusOK {
		t.Fatalf("q6window status %d", code)
	}
	if sum.Sum != oracle {
		t.Errorf("q6window sum = %v, want %v", sum.Sum, oracle)
	}

	resp, err := http.Post(e.ts.URL+"/query/q6window/rows", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream Content-Type = %q", ct)
	}
	var streamed decimal.Dec128
	rows, trailer := readStream(t, resp.Body, func(hit tpch.Q6WindowHit) {
		if hit.ShipDate < lo || hit.ShipDate > hi {
			t.Fatalf("streamed row outside window: %v", hit)
		}
		streamed = streamed.Add(hit.Revenue)
	})
	if trailer == nil || !trailer.Done || trailer.Error != nil {
		t.Fatalf("bad trailer: %+v", trailer)
	}
	if trailer.Rows != rows {
		t.Errorf("trailer rows %d != streamed rows %d", trailer.Rows, rows)
	}
	if rows == 0 {
		t.Fatal("stream produced no rows — degenerate window")
	}
	if streamed != oracle {
		t.Errorf("streamed revenue sum = %v, want %v", streamed, oracle)
	}
}

// TestServeErrorModel pins the typed status mapping: validation 400,
// unknown 404, wrong method 405, deadline 504, budget rejection 503.
func TestServeErrorModel(t *testing.T) {
	e := newEnv(t, 0.001, serve.Config{})

	var env serve.ErrorEnvelope
	if code := e.post(t, "/query/q6", `{"nonsense":1}`, &env); code != http.StatusBadRequest || env.Error.Code != "bad_request" {
		t.Errorf("unknown field: status %d code %q", code, env.Error.Code)
	}
	env = serve.ErrorEnvelope{}
	if code := e.post(t, "/query/q6window", `{"lo":"not-a-date"}`, &env); code != http.StatusBadRequest || env.Error.Code != "bad_request" {
		t.Errorf("bad date: status %d code %q", code, env.Error.Code)
	}
	env = serve.ErrorEnvelope{}
	if code := e.post(t, "/query/q6", `{"discount":"--0.06"}`, &env); code != http.StatusBadRequest || env.Error.Code != "bad_request" {
		t.Errorf("stray-sign decimal: status %d code %q", code, env.Error.Code)
	}
	if code := e.post(t, "/query/q6?workers=zap", `{}`, nil); code != http.StatusBadRequest {
		t.Errorf("bad workers knob: status %d", code)
	}
	resp, err := http.Get(e.ts.URL + "/query/q99")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown query: status %d", resp.StatusCode)
	}
	resp, err = http.Get(e.ts.URL + "/query/q6")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET query: status %d", resp.StatusCode)
	}

	// Per-request deadline: a 1ms budget over thousands of reps cannot
	// finish; the engine observes ctx at block-claim granularity and the
	// server maps the deadline onto 504.
	env = serve.ErrorEnvelope{}
	if code := e.post(t, "/query/q6window?timeout_ms=1", `{"reps":1000000}`, &env); code != http.StatusGatewayTimeout || env.Error.Code != "timeout" {
		t.Errorf("deadline: status %d code %q", code, env.Error.Code)
	}

	// Budget rejection: with a 1-byte budget every admission is rejected
	// after the bounded wait; the typed ErrBudgetExceeded maps onto 503
	// with Retry-After.
	e.rt.SetMemoryBudget(1)
	defer e.rt.SetMemoryBudget(0)
	req, _ := http.NewRequest(http.MethodPost, e.ts.URL+"/query/q6window?timeout_ms=60000", strings.NewReader(`{}`))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	env = serve.ErrorEnvelope{}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || env.Error.Code != "budget_exceeded" {
		t.Errorf("budget: status %d code %q", resp.StatusCode, env.Error.Code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("budget rejection missing Retry-After")
	}
}

// TestServeSaturationBackpressure pins the session-pool saturation fix:
// with one admission slot held busy, a second request gets a typed 429
// with Retry-After within the bounded wait instead of queueing
// unboundedly, and the counter reaches StatsSnapshot.
func TestServeSaturationBackpressure(t *testing.T) {
	e := newEnv(t, 0.001, serve.Config{MaxConcurrent: 1, AdmitWait: 20 * time.Millisecond})

	// Occupy the only slot with a long request.
	hold := make(chan struct{})
	go func() {
		defer close(hold)
		e.post(t, "/query/q6window?timeout_ms=2000", `{"reps":1000000}`, nil)
	}()
	// Wait until the slot is actually held.
	deadline := time.Now().Add(2 * time.Second)
	for e.rt.StatsSnapshot().Serve.InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("long request never took the admission slot")
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	req, _ := http.NewRequest(http.MethodPost, e.ts.URL+"/query/q6", strings.NewReader(`{}`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env serve.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests || env.Error.Code != "saturated" {
		t.Fatalf("saturated request: status %d code %q", resp.StatusCode, env.Error.Code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}
	if wait := time.Since(start); wait > time.Second {
		t.Errorf("saturated request took %v — wait not bounded", wait)
	}
	if st := e.rt.StatsSnapshot(); st.Serve.Saturated == 0 {
		t.Error("Saturated counter not surfaced through StatsSnapshot")
	}
	<-hold
}

// TestServeHealthzDegradedButServing pins the /healthz contract under
// an exceeded budget: the replica still serves (it refuses queries
// typed), so the status stays 200 {"ok":true} — only a dead Maintainer
// is a 503. The /stats Governor section carries the budget accounting.
func TestServeHealthzDegradedButServing(t *testing.T) {
	e := newEnv(t, 0.001, serve.Config{})
	healthz := func(label string) {
		t.Helper()
		resp, err := http.Get(e.ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var hr serve.HealthResponse
		if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || !hr.OK {
			t.Fatalf("%s healthz: status %d body %+v, want 200 ok", label, resp.StatusCode, hr)
		}
	}
	healthz("unbudgeted")

	// A 1-byte budget: every admission is refused, the replica is not.
	e.rt.SetMemoryBudget(1)
	defer e.rt.SetMemoryBudget(0)
	healthz("over-budget")

	var stats core.RuntimeStats
	resp, err := http.Get(e.ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Governor.Limit != 1 || stats.Governor.GovernedUsed <= stats.Governor.Limit {
		t.Errorf("stats Governor section = %+v, want the governed total over limit 1", stats.Governor)
	}
	if stats.Governor.GovernedUsed < stats.Governor.HeapUsed {
		t.Errorf("governed total %d below heap term %d", stats.Governor.GovernedUsed, stats.Governor.HeapUsed)
	}
}

// TestServeRetryAfterConstant pins the wire form of the backoff on a
// budget 503: Retry-After is always one second.
func TestServeRetryAfterConstant(t *testing.T) {
	e := newEnv(t, 0.001, serve.Config{})
	e.rt.SetMemoryBudget(1)
	defer e.rt.SetMemoryBudget(0)

	req, _ := http.NewRequest(http.MethodPost, e.ts.URL+"/query/q6window?timeout_ms=60000", strings.NewReader(`{}`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env serve.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || env.Error.Code != "budget_exceeded" {
		t.Fatalf("status %d code %q, want 503 budget_exceeded", resp.StatusCode, env.Error.Code)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After %q, want 1", ra)
	}
}

// TestServeHealthzStatsQueries covers the operational endpoints:
// readiness follows the Maintainer, /stats carries the runtime snapshot
// with serve counters, /queries publishes the schema-derived contracts.
func TestServeHealthzStatsQueries(t *testing.T) {
	e := newEnv(t, 0.001, serve.Config{})

	resp, err := http.Get(e.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz with running maintainer: %d", resp.StatusCode)
	}

	e.post(t, "/query/q6", `{}`, nil)
	var stats core.RuntimeStats
	resp, err = http.Get(e.ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Serve.Requests == 0 || stats.Serve.Admitted == 0 {
		t.Errorf("stats missing serve counters: %+v", stats.Serve)
	}
	if stats.BlocksAllocated == 0 {
		t.Error("stats missing runtime counters")
	}

	var reg struct {
		Queries []struct {
			Name   string          `json:"name"`
			Path   string          `json:"path"`
			Stream bool            `json:"stream"`
			Params json.RawMessage `json:"params"`
		} `json:"queries"`
	}
	resp, err = http.Get(e.ts.URL + "/queries")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"q1": false, "q3": false, "q6": false, "q6window": false, "q6window/rows": true, "q10": false}
	got := map[string]bool{}
	for _, q := range reg.Queries {
		got[q.Name] = q.Stream
		if len(q.Params) == 0 {
			t.Errorf("query %s has no params schema", q.Name)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("registered queries = %v, want %v", got, want)
	}

	// Readiness gates on the maintainer.
	e.mt.Stop()
	resp, err = http.Get(e.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz with stopped maintainer: %d", resp.StatusCode)
	}
}
