package main

import (
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// pipeListener hands http.Server connections that are byte queues in
// this process's memory instead of sockets. The row stream is served
// over it: a stream is 3 000 flushes of 70 bytes, over loopback TCP each
// a trip through the kernel's send and receive paths, and what such a
// trip costs moves between 1 and 2 us for seconds at a time (a 30-line
// program that does nothing else shows it). Nothing in this repository
// can move that, and it drowned what the server does for a row.
type pipeListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), closed: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// dial returns the caller's end of a new connection; the server accepts
// the other end.
func (l *pipeListener) dial() (net.Conn, error) {
	up, down := newQueue(), newQueue()
	select {
	case l.conns <- &pipeConn{in: up, out: down}:
		return &pipeConn{in: down, out: up, caller: true}, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// queue is one direction of a connection. It is unbounded: a writer
// never waits for its reader.
type queue struct {
	mu       sync.Mutex
	cond     *sync.Cond
	buf      []byte
	closed   bool
	deadline time.Time   // of reads
	timer    *time.Timer // wakes a reader at a deadline still to come
}

func newQueue() *queue {
	q := &queue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// pipeConn is one end of an in-process connection.
type pipeConn struct {
	in, out *queue
	// caller marks the load generator's end. Once the first bytes of a
	// response are in (streaming), its Read looks for more every
	// pollEvery instead of sleeping until woken: a reader woken by each
	// flushed row is woken across threads 3 000 times a response, and
	// what that costs depends on whether the other thread had gone idle,
	// so the benchmark would measure its own load generator's wake-ups.
	// Its next Write, a new request, ends the response.
	caller, streaming bool
}

// pollEvery is how long a caller sleeps between two looks at a
// connection on which a response is arriving.
const pollEvery = 200 * time.Microsecond

func (c *pipeConn) Read(p []byte) (int, error) {
	q := c.in
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.buf) == 0 {
		switch {
		case q.closed:
			return 0, io.EOF
		case !q.deadline.IsZero() && !time.Now().Before(q.deadline):
			return 0, os.ErrDeadlineExceeded
		case c.caller && c.streaming:
			q.mu.Unlock()
			time.Sleep(pollEvery)
			q.mu.Lock()
		default:
			q.cond.Wait()
		}
	}
	n := copy(p, q.buf)
	q.buf = q.buf[:copy(q.buf, q.buf[n:])]
	c.streaming = c.caller
	return n, nil
}

func (c *pipeConn) Write(p []byte) (int, error) {
	if c.caller {
		c.streaming = false
	}
	q := c.out
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return 0, io.ErrClosedPipe
	}
	q.buf = append(q.buf, p...)
	q.cond.Broadcast()
	return len(p), nil
}

// Close closes both directions: the peer reads what is queued, then EOF.
func (c *pipeConn) Close() error {
	for _, q := range []*queue{c.in, c.out} {
		q.mu.Lock()
		q.closed = true
		q.cond.Broadcast()
		q.mu.Unlock()
	}
	return nil
}

func (c *pipeConn) LocalAddr() net.Addr  { return pipeAddr{} }
func (c *pipeConn) RemoteAddr() net.Addr { return pipeAddr{} }

// SetReadDeadline must work: a deadline in the past is how http.Server
// takes a connection back from the read it parks on it while a handler
// runs.
func (c *pipeConn) SetReadDeadline(t time.Time) error {
	q := c.in
	q.mu.Lock()
	defer q.mu.Unlock()
	q.deadline = t
	if q.timer != nil {
		q.timer.Stop()
		q.timer = nil
	}
	if t.IsZero() {
		return nil
	}
	if d := time.Until(t); d > 0 {
		q.timer = time.AfterFunc(d, func() {
			q.mu.Lock()
			q.cond.Broadcast()
			q.mu.Unlock()
		})
	} else {
		q.cond.Broadcast()
	}
	return nil
}

func (c *pipeConn) SetDeadline(t time.Time) error    { return c.SetReadDeadline(t) }
func (c *pipeConn) SetWriteDeadline(time.Time) error { return nil } // writes never wait
