package serve

// The endpoint registry: each parameterized query is one Spec — typed
// params struct in, typed response struct out, wire contracts derived
// from the Go types by internal/schema at registration time, together
// with the compiled encoder that writes the response (a type the deriver
// rejects fails server construction, not the first request).
// Zero-valued params fall back to the TPC-H validation defaults
// (tpch.DefaultParams), so `curl -d '{}'` runs every query.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"

	"repro/internal/core"
	"repro/internal/decimal"
	"repro/internal/schema"
	"repro/internal/tpch"
	"repro/internal/types"
)

// Spec is one registered query endpoint.
type Spec struct {
	Name    string
	Path    string
	Summary string
	// ParamsSchema and ResponseSchema are the schema-derived wire
	// contracts published at /queries. For streaming endpoints the
	// response schema describes one NDJSON row line.
	ParamsSchema, ResponseSchema *schema.JSONSchema
	// Stream marks a chunked-row endpoint (NDJSON lines and a trailer
	// instead of one buffered object).
	Stream bool

	decode func(r *http.Request) (any, error)
	// run executes the query for the decoded params and writes the whole
	// response, success or failure. It is built by newSpec/newStreamSpec,
	// where the params, the result and its compiled encoder are still
	// typed: nothing on the result path goes through an interface.
	run func(ctx context.Context, s *Server, w http.ResponseWriter, sess *core.Session, workers int, params any)
	// appendResult appends a driver result's wire bytes through the
	// endpoint's compiled encoder (Server.AppendResult).
	appendResult func(dst []byte, result any) ([]byte, error)
}

// decodeInto strictly decodes the request body into *P; an empty body
// yields zero params (the documented "all defaults" request).
func decodeInto[P any](r *http.Request) (any, error) {
	p := new(P)
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(p); err != nil && !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("bad params: %v", err)
	}
	return p, nil
}

// newSpec builds a buffered-response endpoint over typed params P and
// response R, deriving both wire schemas and compiling R's encoder: the
// response is one compact JSON object and a newline.
func newSpec[P, R any](name, summary string,
	run func(ctx context.Context, q *tpch.SMCQueries, s *core.Session, workers int, p *P) (*R, error)) *Spec {
	respSchema, enc := schema.MustCompile[R]()
	appendResp := func(dst []byte, resp *R) []byte { return append(enc(dst, resp), '\n') }
	return &Spec{
		Name:           name,
		Path:           "/query/" + name,
		Summary:        summary,
		ParamsSchema:   schema.MustJSONOf(reflect.TypeFor[P]()),
		ResponseSchema: respSchema,
		decode:         decodeInto[P],
		run: func(ctx context.Context, s *Server, w http.ResponseWriter, sess *core.Session, workers int, params any) {
			resp, err := run(ctx, s.q, sess, workers, params.(*P))
			if err != nil {
				s.countCanceled(err)
				writeQueryError(w, err)
				return
			}
			bp := bufPool.Get().(*[]byte)
			defer bufPool.Put(bp)
			*bp = appendResp((*bp)[:0], resp)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			// A failed write means the client is gone; there is no one
			// left to tell and nothing left to release.
			_, _ = w.Write(*bp)
		},
		appendResult: func(dst []byte, result any) ([]byte, error) {
			resp, ok := result.(*R)
			if !ok {
				return dst, fmt.Errorf("serve: %s result is %T, want %T", name, result, resp)
			}
			return appendResp(dst, resp), nil
		},
	}
}

// newStreamSpec builds a chunked-row endpoint: R is the per-line row
// type, and stream hands sink the typed row batches the scan produces,
// one per block. Each batch becomes NDJSON lines through R's compiled
// encoder (see streamRows).
func newStreamSpec[P, R any](name, summary string,
	stream func(ctx context.Context, q *tpch.SMCQueries, s *core.Session, workers int, p *P, sink func(rows []R) error) error) *Spec {
	rowSchema, enc := schema.MustCompile[R]()
	appendRows := func(dst []byte, rows []R) []byte {
		for i := range rows {
			dst = append(enc(dst, &rows[i]), '\n')
		}
		return dst
	}
	return &Spec{
		Name:           name,
		Path:           "/query/" + name,
		Summary:        summary,
		ParamsSchema:   schema.MustJSONOf(reflect.TypeFor[P]()),
		ResponseSchema: rowSchema,
		Stream:         true,
		decode:         decodeInto[P],
		run: func(ctx context.Context, s *Server, w http.ResponseWriter, sess *core.Session, workers int, params any) {
			streamRows(s, w, appendRows, func(sink func(rows []R) error) error {
				return stream(ctx, s.q, sess, workers, params.(*P), sink)
			})
		},
		appendResult: func(dst []byte, result any) ([]byte, error) {
			rows, ok := result.([]R)
			if !ok {
				return dst, fmt.Errorf("serve: %s result is %T, want %T", name, result, rows)
			}
			return appendRows(dst, rows), nil
		},
	}
}

// Wire types. Every field is optional (zero value → TPC-H validation
// default), so the schemas mark them omitempty and `{}` is a valid
// request everywhere.

// Q1Params parameterizes the pricing summary report.
type Q1Params struct {
	// Delta is the shipdate cutoff offset in days before 1998-12-01.
	Delta int `json:"delta,omitempty"`
}

// RowsResponse is the buffered row-set envelope.
type RowsResponse[R any] struct {
	Rows []R `json:"rows"`
}

// Q3Params parameterizes the shipping-priority query.
type Q3Params struct {
	Segment string     `json:"segment,omitempty"`
	Date    types.Date `json:"date,omitempty"`
}

// Q6Params parameterizes the revenue-change query.
type Q6Params struct {
	Date     types.Date     `json:"date,omitempty"`
	Discount decimal.Dec128 `json:"discount,omitempty"`
	Quantity decimal.Dec128 `json:"quantity,omitempty"`
}

// SumResponse is the single-aggregate envelope.
type SumResponse struct {
	Sum decimal.Dec128 `json:"sum"`
}

// Q6WindowParams parameterizes the windowed revenue scan. Lo/Hi bound
// the ship-date window inclusively; a zero Hi means "no upper bound".
// Every request runs its own epoch-pinned parallel scan.
type Q6WindowParams struct {
	Lo types.Date `json:"lo,omitempty"`
	Hi types.Date `json:"hi,omitempty"`
	// NoPushdown disables the synopsis pushdown (the kernel's residual
	// window check runs either way, so the sum cannot change).
	NoPushdown bool `json:"no_pushdown,omitempty"`
	// Reps re-runs the scan N times and returns the last sum — a load-
	// and cancellation-testing knob (each rep re-admits under the budget
	// and re-observes the request context).
	Reps int `json:"reps,omitempty"`
}

// Q10Params parameterizes the returned-item report.
type Q10Params struct {
	Date types.Date `json:"date,omitempty"`
}

// maxReps caps the q6window load-test knob.
const maxReps = 1 << 20

// registerBuiltin registers the served query set. At minimum the
// parameterized Q1, Q3, Q6, Q6Window and Q10 per the serving roadmap;
// q6window/rows is the chunked streaming form.
func registerBuiltin(s *Server) {
	s.register(newSpec("q1", "TPC-H Q1 pricing summary report",
		func(ctx context.Context, q *tpch.SMCQueries, sess *core.Session, workers int, p *Q1Params) (*RowsResponse[tpch.Q1Row], error) {
			tp := tpch.DefaultParams()
			if p.Delta > 0 {
				tp.Q1Delta = p.Delta
			}
			rows, err := q.Q1ParCtx(ctx, sess, tp, workers)
			if err != nil {
				return nil, err
			}
			return &RowsResponse[tpch.Q1Row]{Rows: rows}, nil
		}))
	s.register(newSpec("q3", "TPC-H Q3 shipping priority (top 10)",
		func(ctx context.Context, q *tpch.SMCQueries, sess *core.Session, workers int, p *Q3Params) (*RowsResponse[tpch.Q3Row], error) {
			tp := tpch.DefaultParams()
			if p.Segment != "" {
				tp.Q3Segment = p.Segment
			}
			if p.Date != 0 {
				tp.Q3Date = p.Date
			}
			rows, err := q.Q3ParCtx(ctx, sess, tp, workers)
			if err != nil {
				return nil, err
			}
			return &RowsResponse[tpch.Q3Row]{Rows: rows}, nil
		}))
	s.register(newSpec("q6", "TPC-H Q6 forecasting revenue change",
		func(ctx context.Context, q *tpch.SMCQueries, sess *core.Session, workers int, p *Q6Params) (*SumResponse, error) {
			tp := tpch.DefaultParams()
			if p.Date != 0 {
				tp.Q6Date = p.Date
			}
			if !p.Discount.IsZero() {
				tp.Q6Discount = p.Discount
			}
			if !p.Quantity.IsZero() {
				tp.Q6Quantity = p.Quantity
			}
			sum, err := q.Q6ParCtx(ctx, sess, tp, workers)
			if err != nil {
				return nil, err
			}
			return &SumResponse{Sum: sum}, nil
		}))
	s.register(newSpec("q6window", "Windowed revenue scan over ship dates, window pushed down onto block synopses",
		func(ctx context.Context, q *tpch.SMCQueries, sess *core.Session, workers int, p *Q6WindowParams) (*SumResponse, error) {
			lo, hi := windowBounds(p.Lo, p.Hi)
			reps := p.Reps
			if reps < 1 {
				reps = 1
			} else if reps > maxReps {
				reps = maxReps
			}
			var sum decimal.Dec128
			for i := 0; i < reps; i++ {
				var err error
				sum, err = q.Q6WindowParCtx(ctx, sess, lo, hi, workers, !p.NoPushdown)
				if err != nil {
					return nil, err
				}
			}
			return &SumResponse{Sum: sum}, nil
		}))
	s.register(newStreamSpec("q6window/rows", "Windowed revenue scan, qualifying rows streamed as NDJSON chunks",
		func(ctx context.Context, q *tpch.SMCQueries, sess *core.Session, workers int, p *Q6WindowParams, sink func(rows []tpch.Q6WindowHit) error) error {
			lo, hi := windowBounds(p.Lo, p.Hi)
			return q.Q6WindowRowsCtx(ctx, sess, lo, hi, workers, !p.NoPushdown, sink)
		}))
	s.register(newSpec("q10", "TPC-H Q10 returned-item reporting (top 20)",
		func(ctx context.Context, q *tpch.SMCQueries, sess *core.Session, workers int, p *Q10Params) (*RowsResponse[tpch.Q10Row], error) {
			tp := tpch.DefaultParams()
			if p.Date != 0 {
				tp.Q10Date = p.Date
			}
			rows, err := q.Q10ParCtx(ctx, sess, tp, workers)
			if err != nil {
				return nil, err
			}
			return &RowsResponse[tpch.Q10Row]{Rows: rows}, nil
		}))
}

// windowBounds resolves the optional window: zero Hi means unbounded
// above (synopsis intervals are inclusive, so the max date is exact).
func windowBounds(lo, hi types.Date) (types.Date, types.Date) {
	if hi == 0 {
		hi = types.Date(1<<31 - 1)
	}
	return lo, hi
}
