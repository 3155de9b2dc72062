package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"
)

// errWrongAnswer marks a served answer that differs from its oracle: it
// fails the round like a refusal does, and also fails the whole run.
var errWrongAnswer = errors.New("wrong answer")

// client is one caller: one goroutine, one connection, over loopback TCP
// or, for a workload served in process, over the pipe.
type client struct {
	w    *world
	pipe bool
	conn net.Conn
	br   *bufio.Reader
	buf  bytes.Buffer
}

func newClient(w *world, pipe bool) *client {
	return &client{w: w, pipe: pipe, br: bufio.NewReaderSize(nil, 64<<10)}
}

func (c *client) close() {
	if c.conn != nil {
		_ = c.conn.Close()
		c.conn = nil
	}
}

func (c *client) dial() (err error) {
	if c.pipe {
		c.conn, err = c.w.pipe.dial()
	} else {
		c.conn, err = net.Dial("tcp", c.w.addr)
	}
	if err != nil {
		return err
	}
	c.br.Reset(c.conn)
	return nil
}

// do sends r and reads the whole response. The latency is request out
// to last byte in; checking the answer is the harness's work and is not
// in it. lenient checks only status and shape (rows are moving).
func (c *client) do(r *request, workers int, lenient bool) (lat time.Duration, size int, err error) {
	req, err := http.NewRequest(http.MethodPost, "http://"+c.w.addr+r.ep.path+"?workers="+strconv.Itoa(workers), bytes.NewReader(r.body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.conn == nil {
		if err := c.dial(); err != nil {
			return 0, 0, err
		}
	}
	t0 := time.Now()
	if err := req.Write(c.conn); err != nil {
		c.close()
		return 0, 0, err
	}
	resp, err := http.ReadResponse(c.br, req)
	if err != nil {
		c.close()
		return 0, 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	_ = resp.Body.Close()
	lat = time.Since(t0)
	if err != nil || resp.Close {
		c.close()
	}
	if err != nil {
		return 0, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("%s: status %d: %.120s", r.ep.path, resp.StatusCode, c.buf.Bytes())
	}
	check := r.check
	if lenient {
		check = r.ep.wellFormed
	}
	if check != nil {
		if err := check(c.buf.Bytes()); err != nil {
			return 0, 0, fmt.Errorf("%s %s: %w", r.ep.path, r.body, err)
		}
	}
	return lat, c.buf.Len(), nil
}

// round makes one pass through the workload's script and returns the
// sum of its requests' latencies and of their response sizes; lats, if
// not nil, receives each request's latency.
func (c *client) round(wl *workload, pools [][]*request, round, workers int, lenient bool, lats []time.Duration) (total time.Duration, size int, err error) {
	for i := range wl.script {
		lat, n, err := c.do(pick(pools, i, round), workers, lenient)
		if err != nil {
			return 0, 0, err
		}
		if lats != nil {
			lats[i] = lat
		}
		total += lat
		size += n
	}
	return total, size, nil
}

// pick chooses the pooled parameter set for a step of a round: pools are
// seeded draws, so walking them in order is a seeded sequence.
func pick(pools [][]*request, step, round int) *request {
	return pools[step][(round+5*step)%poolSize]
}

// tally counts rounds. A round fails on a transport error, a non-200 or
// a wrong answer in any of its requests.
type tally struct {
	attempted, failed int
	wrong             int      // failed rounds whose answer was wrong
	errs              []string // the first few failures
}

func (t *tally) fail(err error) {
	t.failed++
	if errors.Is(err, errWrongAnswer) {
		t.wrong++
	}
	if len(t.errs) < 3 {
		t.errs = append(t.errs, err.Error())
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	t.errs = append(t.errs, o.errs[:min(len(o.errs), 3-len(t.errs))]...)
}

// phase is what one load phase measured.
type phase struct {
	tally
	rounds   []time.Duration // latency of each successful round
	requests []time.Duration // latency of each request of those rounds
	bytesOut int64
	wall     time.Duration
}

// merge adds what another stretch of the same phase measured.
func (p *phase) merge(o *phase) {
	p.add(o.tally)
	p.rounds = append(p.rounds, o.rounds...)
	p.requests = append(p.requests, o.requests...)
	p.bytesOut += o.bytesOut
	p.wall += o.wall
}

// runPhase drives the workload's round in a closed loop from `clients`
// callers for d: each sends its next request when the previous reply has
// arrived, and all start a round together, as the panels of a dashboard
// that refreshes when its last answer is in. (Callers left to drift
// phase-lock on the scan-share pass for seconds at a time, which makes
// the round time bimodal and its median a coin toss.) first is the
// round to begin at, so that a phase run in slices keeps walking the
// pools. lenient is set while a writer moves rows under the readers.
func runPhase(w *world, wl *workload, pools [][]*request, clients, workers, first int, lenient bool, d time.Duration) *phase {
	parts := make([]phase, clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(d)
	tick := newBarrier(clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(w, wl.pipe)
			defer cl.close()
			p := &parts[c]
			lats := make([]time.Duration, len(wl.script))
			// Callers start at different places in the pools.
			for round := first + c*poolSize/clients; tick.wait(deadline); round++ {
				p.attempted++
				total, size, err := cl.round(wl, pools, round, workers, lenient, lats)
				if err != nil {
					p.fail(err)
					continue
				}
				p.rounds = append(p.rounds, total)
				p.requests = append(p.requests, lats...)
				p.bytesOut += int64(size)
			}
		}(c)
	}
	wg.Wait()
	out := &phase{}
	for i := range parts {
		out.merge(&parts[i])
	}
	out.wall = time.Since(t0)
	return out
}

// barrier starts the callers' rounds together.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	waiting int
	gen     int
	proceed bool
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait blocks until all n callers have arrived and reports whether the
// next round starts before the deadline; every caller gets the same answer.
func (b *barrier) wait(deadline time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.waiting++
	if b.waiting == b.n {
		b.waiting = 0
		b.gen++
		b.proceed = time.Now().Before(deadline)
		b.cond.Broadcast()
		return b.proceed
	}
	for gen := b.gen; gen == b.gen; {
		b.cond.Wait()
	}
	return b.proceed
}

// runWriter applies refresh pairs on a fixed open-loop schedule, one
// every `every`, until stop is closed. Each pair is timed from when it
// was due, so a stall counts against every pair it delays.
func (rf *refresher) runWriter(stop <-chan struct{}, every time.Duration) error {
	start := time.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * every)
		if wait := time.Until(due); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-stop:
				t.Stop()
				return nil
			case <-t.C:
			}
		}
		select {
		case <-stop:
			return nil
		default:
		}
		began := time.Now()
		took, err := rf.pair()
		if err != nil {
			return err
		}
		rf.late = append(rf.late, began.Sub(due))
		rf.pairs = append(rf.pairs, began.Sub(due)+took)
	}
}

// percentile returns the nearest-rank p-th percentile of d, and the
// number of samples; d is sorted in place.
func percentile(d []time.Duration, p float64) (time.Duration, int) {
	if len(d) == 0 {
		return 0, 0
	}
	slices.Sort(d)
	rank := int(float64(len(d))*p/100+0.999999) - 1
	return d[min(max(rank, 0), len(d)-1)], len(d)
}

// median is the 50th percentile of d, which it leaves in place: the
// ladder's per-round slices are paired by index.
func median(d []time.Duration) time.Duration {
	m, _ := percentile(slices.Clone(d), 50)
	return m
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
