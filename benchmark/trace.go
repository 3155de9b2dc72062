package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/query"
)

// The traced run replays rounds as a ladder. Each rung is a public call
// one layer further in, with the same parameters, timed from outside:
//
//	http      HTTP request over the workload's transport
//	handler   the same request through srv.ServeHTTP on a recorder
//	driver    session lease + the compiled driver the handler calls
//	encode    JSON encoding of the driver's typed response (handler's
//	          other child, beside driver)
//	skeleton  session lease + query.NewCtx/Close + the driver's block
//	          scans with an empty kernel: decision pass, block claims
//
// The rungs of one request run one after another from one caller at
// workers=1, so a rung's self time is its duration minus its children's.
type rung int

const (
	rungHTTP rung = iota
	rungHandler
	rungDriver
	rungEncode
	rungSkeleton
	numRungs
)

var rungNames = [numRungs]string{"http", "handler", "driver", "encode", "skeleton"}

// rungParent is the rung whose interval a rung's work is part of.
var rungParent = [numRungs]rung{rungHTTP: -1, rungHandler: rungHTTP, rungDriver: rungHandler, rungEncode: rungHandler, rungSkeleton: rungDriver}

// span is one timed call. Spans are kept in memory and written out when
// the benchmark ends.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a round's outermost rung
	Round   int    `json:"round"`  // shared by every span of one round
	Step    int    `json:"step"`   // the request's place in the round
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the traced phase began
	EndNs   int64  `json:"end_ns"`
}

type tracer struct {
	origin time.Time
	spans  []span
}

func (t *tracer) record(name string, parent, round, step int, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Round: round, Step: step, Name: name,
		StartNs: start.Sub(t.origin).Nanoseconds(), EndNs: end.Sub(t.origin).Nanoseconds()})
	return id
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			_ = f.Close()
			return err
		}
	}
	return f.Close()
}

// ladder is what the traced phase measured: per round, each rung's time
// summed over the round's requests.
type ladder struct {
	rounds [numRungs][]time.Duration
	// plain holds untraced rounds run between the ladders: one caller,
	// workers=1, no spans, other parameter sets of the same pools. The
	// traced http rung must agree with them.
	plain []time.Duration
	// driver holds per-request driver times by endpoint name.
	driver map[string][]time.Duration
	// encodeDur and rowsOut accumulate over streamed responses.
	encodeDur time.Duration
	rowsOut   int
	tally
}

// driverTimeout is the server's default per-request deadline: the direct
// rungs run under a deadline context as the handler's driver call does.
const driverTimeout = 10 * time.Second

// skeleton replays the block scans r's driver makes with an empty kernel.
func skeleton(ctx context.Context, w *world, s *core.Session, r *request) error {
	pl, err := query.NewCtx(ctx, s, w.arenas, 1)
	if err != nil {
		return err
	}
	defer pl.Close()
	for _, sc := range r.ep.scans(w, r) {
		if err := sc.src.ParallelBlocksPredCtx(ctx, s, 1, sc.pred, func(int, *core.Session, *mem.Block) error { return nil }); err != nil {
			return err
		}
	}
	return nil
}

// leased runs fn with a pooled session, as the handler does.
func leased(w *world, fn func(ctx context.Context, s *core.Session) error) error {
	ctx, cancel := context.WithTimeout(context.Background(), driverTimeout)
	defer cancel()
	s, err := w.rt.LeaseSession()
	if err != nil {
		return err
	}
	defer w.rt.ReturnSession(s)
	return fn(ctx, s)
}

// climb runs every rung for one request and returns their durations.
func climb(w *world, cl *client, tr *tracer, r *request, round, step int, ld *ladder) (d [numRungs]time.Duration, err error) {
	var ids [numRungs]int
	note := func(g rung, start, end time.Time) {
		parent := 0
		if p := rungParent[g]; p >= 0 {
			parent = ids[p]
		}
		ids[g] = tr.record(rungNames[g], parent, round, step, start, end)
		d[g] = end.Sub(start)
	}

	t0 := time.Now()
	lat, _, err := cl.do(r, 1, false)
	if err != nil {
		return d, err
	}
	note(rungHTTP, t0, t0.Add(lat))

	req := httptest.NewRequest(http.MethodPost, r.ep.path+"?workers=1", bytes.NewReader(r.body))
	rec := httptest.NewRecorder()
	t0 = time.Now()
	w.srv.ServeHTTP(rec, req)
	note(rungHandler, t0, time.Now())
	if rec.Code != http.StatusOK {
		return d, fmt.Errorf("%s in-process: status %d", r.ep.path, rec.Code)
	}
	if err := r.check(rec.Body.Bytes()); err != nil {
		return d, fmt.Errorf("%s in-process: %w", r.ep.path, err)
	}

	var resp any
	t0 = time.Now()
	err = leased(w, func(ctx context.Context, s *core.Session) (err error) {
		resp, err = r.ep.drive(ctx, w, s, r, 1)
		return err
	})
	note(rungDriver, t0, time.Now())
	if err != nil {
		return d, fmt.Errorf("%s driver: %w", r.ep.name, err)
	}
	ld.driver[r.ep.name] = append(ld.driver[r.ep.name], d[rungDriver])

	t0 = time.Now()
	rows, err := r.ep.encode(io.Discard, resp)
	note(rungEncode, t0, time.Now())
	if err != nil {
		return d, fmt.Errorf("%s encode: %w", r.ep.name, err)
	}
	if rows > 0 {
		ld.rowsOut += rows
		ld.encodeDur += d[rungEncode]
	}

	t0 = time.Now()
	err = leased(w, func(ctx context.Context, s *core.Session) error { return skeleton(ctx, w, s, r) })
	note(rungSkeleton, t0, time.Now())
	if err != nil {
		return d, fmt.Errorf("%s skeleton: %w", r.ep.name, err)
	}
	return d, nil
}

// runLadder replays rounds as ladders for d, each after one untraced
// round, so that both see the same machine. No writer runs beside it,
// so every answer is held to the oracle.
func runLadder(w *world, wl *workload, pools [][]*request, d time.Duration, tr *tracer) *ladder {
	ld := &ladder{driver: map[string][]time.Duration{}}
	cl := newClient(w, wl.pipe)
	defer cl.close()
	tr.origin = time.Now()
	deadline := tr.origin.Add(d)
	for round := 0; time.Now().Before(deadline); round++ {
		ld.attempted += 2
		var sum [numRungs]time.Duration
		plain, _, err := cl.round(wl, pools, round+poolSize/2, 1, false, nil)
		if err != nil {
			ld.fail(err)
			continue
		}
		ld.plain = append(ld.plain, plain)
		for i := range wl.script {
			var d [numRungs]time.Duration
			if d, err = climb(w, cl, tr, pick(pools, i, round), round, i, ld); err != nil {
				break
			}
			for g := range sum {
				sum[g] += d[g]
			}
		}
		if err != nil {
			ld.fail(err)
			continue
		}
		for g := range sum {
			ld.rounds[g] = append(ld.rounds[g], sum[g])
		}
	}
	return ld
}

// selfTimes derives each rung's self time per round (rung minus its
// children, from the same round so that the parameters cancel) and
// returns the medians with their standard errors. A long round's small
// self time is the difference of two noisy scans, so it can come out a
// little below zero; it counts against the ladder only when it is below
// zero by more than twice its standard error.
func (ld *ladder) selfTimes() (self, stderr [numRungs]time.Duration) {
	n := len(ld.rounds[rungHTTP])
	for g := rung(0); g < numRungs; g++ {
		diffs := make([]time.Duration, n)
		for i := range diffs {
			diffs[i] = ld.rounds[g][i]
			for c := rung(0); c < numRungs; c++ {
				if rungParent[c] == g {
					diffs[i] -= ld.rounds[c][i]
				}
			}
		}
		self[g] = median(diffs)
		for i := range diffs {
			diffs[i] = (diffs[i] - self[g]).Abs()
		}
		// 1.858 = 1.4826 (MAD to sigma) x 1.2533 (sigma of a median).
		stderr[g] = time.Duration(1.858 * float64(median(diffs)) / math.Sqrt(float64(max(1, n))))
	}
	return self, stderr
}

// probe calls fn until budget is spent, at least three times, and
// returns the median of what it reports.
func probe(budget time.Duration, fn func(i int) (time.Duration, error)) (time.Duration, error) {
	var got []time.Duration
	deadline := time.Now().Add(budget)
	for i := 0; i < 3 || time.Now().Before(deadline); i++ {
		d, err := fn(i)
		if err != nil {
			return 0, err
		}
		got = append(got, d)
	}
	return median(got), nil
}

// driveRound times the round's driver calls at the given fan-out.
func driveRound(w *world, wl *workload, pools [][]*request, round, workers int) (time.Duration, error) {
	var total time.Duration
	for i := range wl.script {
		r := pick(pools, i, round)
		t0 := time.Now()
		err := leased(w, func(ctx context.Context, s *core.Session) error {
			_, err := r.ep.drive(ctx, w, s, r, workers)
			return err
		})
		if err != nil {
			return 0, err
		}
		total += time.Since(t0)
	}
	return total, nil
}

// probeSpeedup is the round's driver time at one worker over its time
// at `workers`: intra-query scaling without the front door.
func probeSpeedup(w *world, wl *workload, pools [][]*request, workers int, budget time.Duration) (float64, error) {
	one, err := probe(budget/2, func(i int) (time.Duration, error) { return driveRound(w, wl, pools, i, 1) })
	if err != nil {
		return 0, err
	}
	many, err := probe(budget/2, func(i int) (time.Duration, error) { return driveRound(w, wl, pools, i, workers) })
	if err != nil || many == 0 {
		return 0, err
	}
	return float64(one) / float64(many), nil
}

// probeShareSelf is what routing a windowed scan through the share
// group costs a lone rider: Q6WindowSharedCtx minus Q6WindowParCtx over
// the round's window requests, each pair on the same window.
func probeShareSelf(w *world, wl *workload, pools [][]*request, budget time.Duration) (time.Duration, error) {
	return probe(budget, func(round int) (time.Duration, error) {
		var diff time.Duration
		for i, st := range wl.script {
			if st.ep != epQ6Window {
				continue
			}
			r := pick(pools, i, round)
			err := leased(w, func(ctx context.Context, s *core.Session) error {
				t0 := time.Now()
				if _, err := w.q.Q6WindowSharedCtx(ctx, s, r.lo, r.hi, 1, true); err != nil {
					return err
				}
				t1 := time.Now()
				if _, err := w.q.Q6WindowParCtx(ctx, s, r.lo, r.hi, 1, true); err != nil {
					return err
				}
				diff += t1.Sub(t0) - time.Since(t1)
				return nil
			})
			if err != nil {
				return 0, err
			}
		}
		return diff, nil
	})
}

// probeBatch is how many calls one sample of a microsecond-scale probe
// times, so that the clock reads do not show.
const probeBatch = 256

// probeOpenClose is query.NewCtx + Close on the benchmark's own pool.
func probeOpenClose(w *world, budget time.Duration) (time.Duration, error) {
	return probe(budget, func(int) (time.Duration, error) {
		t0 := time.Now()
		for i := 0; i < probeBatch; i++ {
			pl, err := query.NewCtx(context.Background(), w.sess, w.arenas, 1)
			if err != nil {
				return 0, err
			}
			pl.Lease() // a pipeline that leases nothing skips the pool
			pl.Close()
		}
		return time.Since(t0) / probeBatch, nil
	})
}

// probeSessionLease is rt.LeaseSession + ReturnSession.
func probeSessionLease(w *world, budget time.Duration) (time.Duration, error) {
	return probe(budget, func(int) (time.Duration, error) {
		t0 := time.Now()
		for i := 0; i < probeBatch; i++ {
			s, err := w.rt.LeaseSession()
			if err != nil {
				return 0, err
			}
			w.rt.ReturnSession(s)
		}
		return time.Since(t0) / probeBatch, nil
	})
}
