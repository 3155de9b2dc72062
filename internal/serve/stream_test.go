package serve_test

// The row stream's contract with its ResponseWriter, driven through
// Server.ServeHTTP on a writer that counts and can fail: one Write and
// one Flush per block batch, and a writer that refuses bytes is a
// client that went away.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/decimal"
	"repro/internal/serve"
	"repro/internal/tpch"
	"repro/internal/types"
)

// countingWriter is a ResponseWriter that counts Writes and Flushes and
// refuses every byte past failAfter (the peer closed the connection).
type countingWriter struct {
	hdr             http.Header
	body            bytes.Buffer
	writes, flushes int
	refused         int // Writes failed
	failAfter       int // bytes accepted before Write fails; < 0 never fails
}

func (w *countingWriter) Header() http.Header { return w.hdr }
func (w *countingWriter) WriteHeader(int)     {}
func (w *countingWriter) Flush()              { w.flushes++ }
func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.failAfter >= 0 && w.body.Len()+len(p) > w.failAfter {
		w.refused++
		return 0, errors.New("write: broken pipe")
	}
	return w.body.Write(p)
}

// readStream parses an NDJSON row stream: each row line goes to each,
// and the trailer — which must be the last line — comes back with the
// row count.
func readStream(t *testing.T, r io.Reader, each func(tpch.Q6WindowHit)) (rows int64, trailer *serve.StreamTrailer) {
	t.Helper()
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if trailer != nil {
			t.Fatalf("line after the trailer: %s", sc.Bytes())
		}
		var line struct {
			tpch.Q6WindowHit
			serve.StreamTrailer
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("stream line %q: %v", sc.Bytes(), err)
		}
		if line.Done || line.Error != nil {
			trailer = &line.StreamTrailer
			continue
		}
		each(line.Q6WindowHit)
		rows++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows, trailer
}

func streamRequest(path, body string) *http.Request {
	return httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
}

// TestServeStreamFlushesPerBlockBatch pins the batching: a stream of
// thousands of rows costs at most one Write and one Flush per scanned
// block plus the trailer's, and the rows and trailer still carry exactly
// Q6WindowParCtx's result.
func TestServeStreamFlushesPerBlockBatch(t *testing.T) {
	e := newEnv(t, 0.01, serve.Config{})
	lo, hi := types.MustDate("1993-01-01"), types.MustDate("1996-12-31")
	oracle, err := e.q.Q6WindowParCtx(context.Background(), e.s, lo, hi, 1, true)
	if err != nil {
		t.Fatal(err)
	}

	w := &countingWriter{hdr: http.Header{}, failAfter: -1}
	before := e.rt.StatsSnapshot().BlocksScanned
	e.srv.ServeHTTP(w, streamRequest("/query/q6window/rows?workers=2", `{"lo":"1993-01-01","hi":"1996-12-31"}`))
	blocks := int(e.rt.StatsSnapshot().BlocksScanned - before)

	var sum decimal.Dec128
	rows, trailer := readStream(t, &w.body, func(hit tpch.Q6WindowHit) { sum = sum.Add(hit.Revenue) })
	if trailer == nil || !trailer.Done || trailer.Rows != rows {
		t.Fatalf("trailer %+v after %d rows", trailer, rows)
	}
	if sum != oracle {
		t.Errorf("streamed revenue sums to %v, Q6WindowParCtx says %v", sum, oracle)
	}
	if blocks < 4 || rows < 1000 {
		t.Fatalf("degenerate stream: %d rows from %d blocks", rows, blocks)
	}
	if w.flushes > blocks+1 || w.writes > blocks+1 {
		t.Errorf("%d writes and %d flushes for %d rows from %d scanned blocks; want at most one of each per block plus the trailer's",
			w.writes, w.flushes, rows, blocks)
	}
	if w.flushes != w.writes {
		t.Errorf("%d writes but %d flushes: every batch must reach the client when it is written", w.writes, w.flushes)
	}
}

// TestServeStreamClientGone pins what a failed Write means: the client
// went away. The scan stops (no batch is offered to the writer after
// the one it refused, bar a worker already waiting on the sink), the
// request is counted in Serve.Canceled, no trailer — success or error —
// is written to the dead connection, and every session and arena the
// request leased is back.
func TestServeStreamClientGone(t *testing.T) {
	e := newEnv(t, 0.01, serve.Config{})
	const workers = 2
	for _, failAfter := range []int{0, 150_000} {
		w := &countingWriter{hdr: http.Header{}, failAfter: failAfter}
		before := e.rt.StatsSnapshot()
		e.srv.ServeHTTP(w, streamRequest(fmt.Sprintf("/query/q6window/rows?workers=%d", workers), `{}`))
		after := e.rt.StatsSnapshot()

		if got := after.Serve.Canceled - before.Serve.Canceled; got != 1 {
			t.Errorf("failAfter=%d: Serve.Canceled moved by %d, want 1", failAfter, got)
		}
		if bytes.Contains(w.body.Bytes(), []byte(`"done"`)) || bytes.Contains(w.body.Bytes(), []byte(`"error"`)) {
			t.Errorf("failAfter=%d: a trailer was written to the dead connection", failAfter)
		}
		if w.body.Len() > failAfter {
			t.Errorf("failAfter=%d: writer accepted %d bytes", failAfter, w.body.Len())
		}
		// After the first refusal only a worker already holding a finished
		// batch may still offer it; the other ~40 blocks go unscanned.
		if w.refused < 1 || w.refused > workers {
			t.Errorf("failAfter=%d: %d writes refused; the scan did not stop at the first", failAfter, w.refused)
		}
		if after.Serve.InFlight != 0 || after.EpochPins != 0 || after.SessionsLeased != after.SessionsReturned {
			t.Errorf("failAfter=%d: leaked: in flight %d, epoch pins %d, sessions leased %d returned %d",
				failAfter, after.Serve.InFlight, after.EpochPins, after.SessionsLeased, after.SessionsReturned)
		}
		for _, p := range after.ArenaPools {
			if p.Leases != p.Returns {
				t.Errorf("failAfter=%d: arena pool leased %d, returned %d", failAfter, p.Leases, p.Returns)
			}
		}
	}
}
