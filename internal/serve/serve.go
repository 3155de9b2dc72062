// Package serve is the query service's HTTP front door: parameterized
// TPC-H queries over self-managed collections, served to concurrent
// clients.
//
// The engine already has everything a server needs — per-request arena
// leasing, pooled sessions, context cancellation threaded to
// block-claim granularity, budget-gated admission, cooperative scan
// sharing — so the handlers are thin: decode typed params (the wire
// contracts are reflection-derived from Go structs by internal/schema
// and published at /queries), hand the request's context.Context
// straight to query.NewCtx via the *ParCtx drivers, and map the
// engine's typed errors onto HTTP statuses.
//
// Result encoding: query results get what the scan path has — typed,
// reflection-free, allocation-free code over fixed offsets. Each
// endpoint's response type is compiled once, at registration, into an
// append encoder (schema.Compile, the same type walk that derives its
// schema) whose output is byte-identical to compact encoding/json. A
// buffered endpoint (/query/{q1,q3,q6,q6window,q10}) appends its typed
// response to a pooled buffer and writes it once: one compact object
// and a newline. The row stream (/query/q6window/rows) works at the
// engine's block batch: the typed []R a scanned block produced is
// encoded into one buffer, written once and flushed once, then a
// trailer line closes the stream (streamRows). Server.AppendResult is
// that encode step on its own. Error envelopes, stream trailers and the
// admin endpoints (/stats, /queries, /healthz) are small and rare and
// stay on encoding/json (indented, where a person reads them).
//
// Admission: the server bounds concurrent query execution with its own
// gate (Config.MaxConcurrent slots). A request that cannot take a slot
// within Config.AdmitWait is turned away with HTTP 429, a Retry-After
// header and a typed "saturated" envelope — bounded backpressure
// instead of piling goroutines onto the session pool until slot
// exhaustion. Gate activity is surfaced through
// core.Runtime.StatsSnapshot (core.ServeCounters).
//
// Backpressure statuses (429/503) carry a constant Retry-After of one
// second. /healthz is 200 {"ok":true} while the Maintainer runs, over
// budget or not, and a not-ready 503 when it is down.
//
// Error model (engine error → HTTP status):
//
//	serve.ErrSaturated        → 429 code "saturated"    (admission gate full past the bounded wait)
//	mem.ErrBudgetExceeded     → 503 code "budget_exceeded" (memory budget rejected the query)
//	context.DeadlineExceeded  → 504 code "timeout"      (per-request deadline hit mid-query)
//	context.Canceled          → 499 code "canceled"     (client went away; logged, rarely seen)
//	stream Write/Flush fails  → no status, no trailer   (client went away mid-stream; counted in Serve.Canceled)
//	decode/validation failure → 400 code "bad_request"
//	unknown query             → 404 code "not_found"
//	anything else (incl. mem.ErrWorkerPanic) → 500 code "internal"
//
// Canceled and deadline-hit queries return within one block's work per
// worker (the engine observes ctx at block-claim granularity) with
// every pooled session returned and every leased arena back in its
// pool — the storm test asserts the balance via StatsSnapshot.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/tpch"
)

// ErrSaturated is the typed admission failure: every slot stayed busy
// for the whole bounded wait. Clients should back off and retry (the
// HTTP layer adds Retry-After).
var ErrSaturated = errors.New("serve: admission gate saturated")

// Config sizes the front door.
type Config struct {
	// MaxConcurrent is the number of admission slots — queries executing
	// at once. Default 64: well under epoch.MaxSessions even with every
	// query fanning out workers.
	MaxConcurrent int
	// AdmitWait is the bounded time a request may wait for a slot before
	// the typed 429. Default 100ms.
	AdmitWait time.Duration
	// DefaultTimeout is the server-side deadline applied when the request
	// carries no timeout_ms (default 10s); maxTimeout caps what a request
	// may ask for.
	DefaultTimeout time.Duration
	// DefaultWorkers is the per-query scan fan-out when the request
	// carries no workers knob (default 1); the knob is capped at
	// GOMAXPROCS.
	DefaultWorkers int
}

// maxTimeout caps the timeout_ms knob.
const maxTimeout = 60 * time.Second

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 64
	}
	if c.AdmitWait <= 0 {
		c.AdmitWait = 100 * time.Millisecond
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.DefaultWorkers <= 0 {
		c.DefaultWorkers = 1
	}
	return c
}

// Server is the HTTP front door over one runtime's TPC-H collections.
// It implements http.Handler and core.ServeMetrics.
type Server struct {
	rt  *core.Runtime
	q   *tpch.SMCQueries
	mt  *mem.Maintainer
	cfg Config
	mux *http.ServeMux
	sem chan struct{}

	specs []*Spec

	requests, admitted, saturated atomic.Int64
	canceled, admitWaitNanos      atomic.Int64
	inFlight                      atomic.Int64
}

// New builds a Server over the given runtime and compiled query object,
// registers the built-in query endpoints, and registers the server's
// admission counters with the runtime's stats surface. mt gates
// /healthz readiness: the server reports ready only while the
// Maintainer is up (a serving heap without background compaction
// fragments without bound).
func New(rt *core.Runtime, q *tpch.SMCQueries, mt *mem.Maintainer, cfg Config) *Server {
	s := &Server{
		rt:  rt,
		q:   q,
		mt:  mt,
		cfg: cfg.withDefaults(),
		mux: http.NewServeMux(),
	}
	s.sem = make(chan struct{}, s.cfg.MaxConcurrent)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/queries", s.handleQueries)
	registerBuiltin(s)
	rt.RegisterServer(s)
	return s
}

// ServeHTTP dispatches to the registered endpoints.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// ServeCounters implements core.ServeMetrics: the admission-gate
// activity StatsSnapshot folds into the process-wide stats.
func (s *Server) ServeCounters() core.ServeCounters {
	return core.ServeCounters{
		Requests:       s.requests.Load(),
		Admitted:       s.admitted.Load(),
		Saturated:      s.saturated.Load(),
		Canceled:       s.canceled.Load(),
		AdmitWaitNanos: s.admitWaitNanos.Load(),
		InFlight:       s.inFlight.Load(),
	}
}

// register adds one endpoint spec; called at construction time, before
// the server handles traffic.
func (s *Server) register(sp *Spec) {
	s.specs = append(s.specs, sp)
	s.mux.HandleFunc(sp.Path, func(w http.ResponseWriter, r *http.Request) {
		s.handleQuery(w, r, sp)
	})
}

// admit takes an admission slot, waiting at most cfg.AdmitWait. The
// returned release func must be called exactly once. A nil release
// means the request was not admitted and err tells why (ErrSaturated or
// the request context's cause).
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	s.requests.Add(1)
	start := time.Now()
	defer func() { s.admitWaitNanos.Add(time.Since(start).Nanoseconds()) }()
	if err := s.acquire(ctx); err != nil {
		return nil, err
	}
	s.admitted.Add(1)
	s.inFlight.Add(1)
	return func() {
		s.inFlight.Add(-1)
		<-s.sem
	}, nil
}

// acquire takes one slot from the gate within cfg.AdmitWait, or reports
// ErrSaturated / the context's cause, counting the refusal as saturated
// or canceled.
func (s *Server) acquire(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	t := time.NewTimer(s.cfg.AdmitWait)
	defer t.Stop()
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		s.canceled.Add(1)
		return context.Cause(ctx)
	case <-t.C:
		s.saturated.Add(1)
		return ErrSaturated
	}
}

// knobs are the per-request execution knobs carried in the query
// string, outside the typed params body: ?workers=N&timeout_ms=M.
func (s *Server) knobs(r *http.Request) (workers int, timeout time.Duration, err error) {
	workers, timeout = s.cfg.DefaultWorkers, s.cfg.DefaultTimeout
	if r.URL.RawQuery == "" {
		return workers, timeout, nil
	}
	query := r.URL.Query()
	if v := query.Get("workers"); v != "" {
		n, perr := strconv.Atoi(v)
		if perr != nil || n < 1 {
			return 0, 0, fmt.Errorf("bad workers %q", v)
		}
		workers = min(n, runtime.GOMAXPROCS(0))
	}
	if v := query.Get("timeout_ms"); v != "" {
		n, perr := strconv.Atoi(v)
		if perr != nil || n < 1 {
			return 0, 0, fmt.Errorf("bad timeout_ms %q", v)
		}
		timeout = min(time.Duration(n)*time.Millisecond, maxTimeout)
	}
	return workers, timeout, nil
}

// handleQuery is the one request path every query endpoint shares:
// admission gate → pooled session lease → typed param decode →
// context-bound driver → typed status mapping.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, sp *Spec) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "bad_request", "POST required")
		return
	}
	workers, timeout, err := s.knobs(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	release, err := s.admit(r.Context())
	if err != nil {
		writeQueryError(w, err)
		return
	}
	defer release()

	params, err := sp.decode(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	sess, err := s.rt.LeaseSession()
	if err != nil {
		// Session slots exhausted outright: same shape as saturation.
		s.saturated.Add(1)
		writeQueryError(w, fmt.Errorf("%w: %v", ErrSaturated, err))
		return
	}
	defer s.rt.ReturnSession(sess)

	sp.run(ctx, s, w, sess, workers, params)
}

// countCanceled counts a query that ended because its context did: the
// client went away or the deadline hit.
func (s *Server) countCanceled(err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		s.canceled.Add(1)
	}
}

// AppendResult appends to dst what the endpoint registered at path puts
// on the wire for a driver result — a buffered endpoint's *R response as
// one compact JSON object and a newline, a streaming endpoint's []R row
// batch as NDJSON lines — through the same compiled encoder the handlers
// use. It is the server's encode step in isolation, for callers that
// measure it.
func (s *Server) AppendResult(dst []byte, path string, result any) ([]byte, error) {
	for _, sp := range s.specs {
		if sp.Path == path {
			return sp.appendResult(dst, result)
		}
	}
	return dst, fmt.Errorf("serve: no query endpoint at %q", path)
}

// bufPool holds response scratch buffers between requests. Pooled, not
// owned: the collector empties a sync.Pool, so an idle server keeps no
// buffer alive.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// errClientGone marks a stream whose response writer refused bytes: the
// peer closed the connection mid-body.
var errClientGone = errors.New("serve: client went away mid-stream")

// streamRows emits a chunked NDJSON response: one JSON row object per
// line, then a final {"done":true,...} trailer. The unit of work is the
// engine's block batch: scan hands sink the typed rows one block
// produced, appendRows encodes the whole batch into one pooled buffer
// through the row type's compiled encoder, and the batch costs one Write
// and one Flush — so a response flushes at most once per scanned block,
// plus once for the trailer. (sink runs under the scan's sink mutex, so
// the one buffer is never shared.)
//
// Errors after the first chunk arrive as an {"error":...} line — the
// 200 status is already on the wire, so the trailer's absence/error
// form is the integrity signal. A failed Write or Flush is the client
// going away, not a server fault: the sink error stops the scan within
// one block per worker, the request is counted in Serve.Canceled, and
// no trailer is written to the dead connection.
func streamRows[R any](s *Server, w http.ResponseWriter, appendRows func(dst []byte, rows []R) []byte, scan func(sink func(rows []R) error) error) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	rc := http.NewResponseController(w)
	send := func(b []byte) error {
		if _, err := w.Write(b); err != nil {
			return fmt.Errorf("%w: %v", errClientGone, err)
		}
		if err := rc.Flush(); err != nil && !errors.Is(err, http.ErrNotSupported) {
			return fmt.Errorf("%w: %v", errClientGone, err)
		}
		return nil
	}
	bp := bufPool.Get().(*[]byte)
	defer bufPool.Put(bp)
	var n int64
	err := scan(func(rows []R) error {
		*bp = appendRows((*bp)[:0], rows)
		n += int64(len(rows))
		return send(*bp)
	})
	trailer := StreamTrailer{Done: true, Rows: n}
	if err != nil {
		if errors.Is(err, errClientGone) {
			s.canceled.Add(1)
			return
		}
		s.countCanceled(err)
		status, code := statusOf(err)
		trailer = StreamTrailer{Error: &APIError{Code: code, Message: err.Error(), Status: status}}
	}
	line, _ := json.Marshal(trailer) // a struct of bools, ints and strings cannot fail
	_ = send(append(line, '\n'))     // a client gone at the trailer has every row; nothing is left to stop
}

// StreamTrailer is the last NDJSON line of a streamed response: either
// {"done":true,"rows":N} on success or an {"error":...} integrity
// signal (the 200 status is already on the wire by then).
type StreamTrailer struct {
	Done  bool      `json:"done,omitempty"`
	Rows  int64     `json:"rows,omitempty"`
	Error *APIError `json:"error,omitempty"`
}

// HealthResponse is the /healthz body. Not-ready (Maintainer down) is
// a 503; an exceeded memory budget is NOT — the budget refuses queries
// typed while the replica keeps serving, so a load balancer must not
// drain it for that.
type HealthResponse struct {
	OK bool `json:"ok"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.mt == nil || !s.mt.Running() {
		writeError(w, http.StatusServiceUnavailable, "not_ready", "maintainer not running")
		return
	}
	writeJSON(w, http.StatusOK, HealthResponse{OK: true})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.rt.StatsSnapshot())
}

// handleQueries publishes the endpoint registry: every query's path and
// its schema-derived wire contract.
func (s *Server) handleQueries(w http.ResponseWriter, _ *http.Request) {
	type entry struct {
		Name     string `json:"name"`
		Path     string `json:"path"`
		Summary  string `json:"summary"`
		Stream   bool   `json:"stream,omitempty"`
		Params   any    `json:"params"`
		Response any    `json:"response"`
	}
	out := make([]entry, 0, len(s.specs))
	for _, sp := range s.specs {
		out = append(out, entry{
			Name:     sp.Name,
			Path:     sp.Path,
			Summary:  sp.Summary,
			Stream:   sp.Stream,
			Params:   sp.ParamsSchema,
			Response: sp.ResponseSchema,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"queries": out})
}

// APIError is the typed error envelope body.
type APIError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Status  int    `json:"status"`
}

// ErrorEnvelope is the JSON body of every non-200 query response.
type ErrorEnvelope struct {
	Error APIError `json:"error"`
}

// statusOf maps an engine error onto (HTTP status, error code).
func statusOf(err error) (int, string) {
	switch {
	case errors.Is(err, ErrSaturated):
		return http.StatusTooManyRequests, "saturated"
	case errors.Is(err, mem.ErrBudgetExceeded):
		return http.StatusServiceUnavailable, "budget_exceeded"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "timeout"
	case errors.Is(err, context.Canceled):
		// Nginx's "client closed request": the client is gone, so the
		// status is for the access log, not the wire.
		return 499, "canceled"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// retryAfter is the Retry-After, in seconds, on every backpressure
// status: a refusal says "try again shortly", and the budget's bounded
// waits have already spent what reclamation could do at once.
const retryAfter = "1"

// writeQueryError writes the typed envelope for an engine error,
// attaching the constant Retry-After to the backpressure statuses.
func writeQueryError(w http.ResponseWriter, err error) {
	status, code := statusOf(err)
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfter)
	}
	writeError(w, status, code, err.Error())
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, ErrorEnvelope{Error: APIError{Code: code, Message: msg, Status: status}})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
