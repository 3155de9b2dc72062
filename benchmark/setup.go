package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/region"
	"repro/internal/serve"
	"repro/internal/tpch"
	"repro/internal/types"
)

// world is the serving posture of cmd/smcserve, booted in-process: a
// runtime with the dataset loaded off-heap, the background Maintainer,
// and the HTTP front door on a loopback listener.
type world struct {
	rt   *core.Runtime
	sess *core.Session // loader and oracle session
	db   *tpch.SMCDB
	q    *tpch.SMCQueries
	mt   *mem.Maintainer
	srv  *serve.Server
	hs   *http.Server
	// The server listens twice: on loopback TCP at addr, and on pipe for
	// the callers of a workload that is served in process.
	addr string
	pipe *pipeListener
	// served is closed when both accept loops have returned.
	served chan struct{}
	// arenas is the benchmark's own pool, for the scan-skeleton rung and
	// the open/close probe; the served queries use tpch.SMCQueries' pool.
	arenas *region.ArenaPool

	loaded  int // lineitem rows loaded
	loadDur time.Duration
}

// maintainInterval is the Maintainer's poll period in this posture.
const maintainInterval = 50 * time.Millisecond

// boot loads data and starts the Maintainer and the server.
func boot(data *tpch.Dataset) (*world, error) {
	rt, err := core.NewRuntime(core.Options{CompactionPacking: core.PackCluster})
	if err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	w := &world{rt: rt, arenas: region.NewArenaPool(nil, 0, 0), served: make(chan struct{})}
	if w.sess, err = rt.NewSession(); err != nil {
		_ = rt.Close()
		return nil, fmt.Errorf("session: %w", err)
	}
	t0 := time.Now()
	if w.db, err = tpch.LoadSMC(rt, w.sess, data, core.RowIndirect); err != nil {
		_ = w.sess.Close()
		_ = rt.Close()
		return nil, fmt.Errorf("load: %w", err)
	}
	w.loadDur = time.Since(t0)
	w.loaded = w.db.Lineitems.Len()
	w.q = tpch.NewSMCQueries(w.db)
	w.mt = rt.StartMaintainer(mem.MaintainerConfig{Interval: maintainInterval})
	w.srv = serve.New(rt, w.q, w.mt, serve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		w.mt.Stop()
		_ = w.sess.Close()
		_ = rt.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	w.addr = ln.Addr().String()
	w.pipe = newPipeListener()
	w.hs = &http.Server{Handler: w.srv}
	var serving sync.WaitGroup
	for _, l := range []net.Listener{ln, w.pipe} {
		serving.Add(1)
		go func() {
			defer serving.Done()
			if err := w.hs.Serve(l); !errors.Is(err, http.ErrServerClosed) {
				fmt.Printf("# server: %v\n", err)
			}
		}()
	}
	go func() {
		serving.Wait()
		close(w.served)
	}()
	return w, nil
}

// stopServing drains the server and stops the Maintainer, after which
// the runtime's counters are still. It may be called more than once.
func (w *world) stopServing() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = w.hs.Shutdown(ctx) // a drain timeout shows up as Serve.InFlight != 0
	<-w.served
	w.mt.Stop()
}

// close stops serving and releases the off-heap memory, once.
func (w *world) close() {
	if w.rt == nil {
		return
	}
	w.stopServing()
	w.arenas.Close()
	_ = w.sess.Close()
	_ = w.rt.Close()
	*w = world{}
}

// rawBytes is the fixed-width record bytes of the live rows of every
// collection: the denominator of space_amp. String payloads are left
// out, so the ratio counts them as storage cost.
func (w *world) rawBytes() int64 {
	db := w.db
	return int64(db.Regions.Len())*int64(db.Regions.Schema().Size) +
		int64(db.Nations.Len())*int64(db.Nations.Schema().Size) +
		int64(db.Suppliers.Len())*int64(db.Suppliers.Schema().Size) +
		int64(db.Customers.Len())*int64(db.Customers.Schema().Size) +
		int64(db.Parts.Len())*int64(db.Parts.Schema().Size) +
		int64(db.PartSupps.Len())*int64(db.PartSupps.Schema().Size) +
		int64(db.Orders.Len())*int64(db.Orders.Schema().Size) +
		int64(db.Lineitems.Len())*int64(db.Lineitems.Schema().Size)
}

// shipDates returns the dataset's lineitem ship dates in ascending
// order and, when ordered is set, sorts the lineitems themselves the
// same way so that the load lays blocks out in date order.
func shipDates(data *tpch.Dataset, ordered bool) []types.Date {
	if ordered {
		slices.SortStableFunc(data.Lineitems, func(a, b tpch.LineitemRow) int { return int(a.ShipDate) - int(b.ShipDate) })
	}
	dates := make([]types.Date, len(data.Lineitems))
	for i := range data.Lineitems {
		dates[i] = data.Lineitems[i].ShipDate
	}
	if !ordered {
		slices.Sort(dates)
	}
	return dates
}

// Refresh-pair shape: each pair adds refreshShare of the loaded rows and
// removes as many, four of every five of the next run of victims, which
// leaves their blocks at 20% occupancy, under the 30% compaction
// threshold.
const (
	refreshShare = 0.005
	sampleRows   = 2048
)

var errVictimsExhausted = errors.New("refresh victim pool exhausted")

// refresher applies refresh pairs: the paper's refresh streams, an Add
// batch and a Remove batch.
type refresher struct {
	w    *world
	sess *core.Session
	// sample holds rows copied from every stride-th loaded lineitem, so
	// added rows scatter over the whole ship-date range.
	sample []tpch.SLineitem
	// victims are refs of loaded rows in memory order.
	victims  []core.Ref[tpch.SLineitem]
	pairRows int
	addPos   int
	next     int

	added, removed    int64
	addDur, removeDur time.Duration
	// pairs holds each applied pair's latency; under the open-loop writer
	// it runs from the pair's due time, and late is how long after its
	// due time the pair began.
	pairs, late []time.Duration
}

// newRefresher collects the sample and room for maxPairs pairs of
// victims in one pass over the lineitems.
func newRefresher(w *world, maxPairs int) (*refresher, error) {
	sess, err := w.rt.NewSession()
	if err != nil {
		return nil, fmt.Errorf("writer session: %w", err)
	}
	rf := &refresher{w: w, sess: sess, pairRows: max(1, int(refreshShare*float64(w.loaded)))}
	wantVictims := min(w.loaded, maxPairs*rf.runLen())
	stride := max(1, w.loaded/sampleRows)
	i := 0
	w.db.Lineitems.ForEach(w.sess, func(ref core.Ref[tpch.SLineitem], v *tpch.SLineitem) bool {
		if len(rf.victims) < wantVictims {
			rf.victims = append(rf.victims, ref)
		}
		if i%stride == 0 {
			rf.sample = append(rf.sample, *v)
		}
		i++
		return true
	})
	return rf, nil
}

// runLen is the number of victims one pair walks: it removes 4 of every 5.
func (rf *refresher) runLen() int { return rf.pairRows * 5 / 4 }

// close releases the writer's session and drops the pools, keeping what
// the writer measured; a nil refresher has nothing to release.
func (rf *refresher) close() {
	if rf != nil && rf.sess != nil {
		_ = rf.sess.Close()
		rf.sess, rf.sample, rf.victims = nil, nil, nil
	}
}

// pair applies one refresh pair and returns how long it took.
func (rf *refresher) pair() (time.Duration, error) {
	if rf.next+rf.runLen() > len(rf.victims) {
		return 0, errVictimsExhausted
	}
	li := rf.w.db.Lineitems
	t0 := time.Now()
	for i := 0; i < rf.pairRows; i++ {
		if _, err := li.Add(rf.sess, &rf.sample[rf.addPos%len(rf.sample)]); err != nil {
			return 0, fmt.Errorf("add: %w", err)
		}
		rf.addPos++
		rf.added++
	}
	t1 := time.Now()
	for j, ref := range rf.victims[rf.next : rf.next+rf.runLen()] {
		if j%5 == 4 {
			continue
		}
		if err := li.Remove(rf.sess, ref); err != nil {
			return 0, fmt.Errorf("remove: %w", err)
		}
		rf.removed++
	}
	t2 := time.Now()
	rf.next += rf.runLen()
	rf.addDur += t1.Sub(t0)
	rf.removeDur += t2.Sub(t1)
	return t2.Sub(t0), nil
}
