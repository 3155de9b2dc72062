package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
)

// Per-layer numbers are taken from outside the engine: deltas of its
// public counters across the loaded phase, and timings of calls into
// its public functions.

// snapshot is every counter surface read at one instant.
type snapshot struct {
	st   core.RuntimeStats
	frag mem.Fragmentation
	ms   runtime.MemStats
}

func takeSnapshot(w *world) snapshot {
	s := snapshot{st: w.rt.StatsSnapshot(), frag: w.rt.FragmentationSnapshot()}
	runtime.ReadMemStats(&s.ms)
	return s
}

// delta is what moved between two snapshots.
type delta struct {
	requests, admitWaitNs, saturated, canceled   int64
	sessLeased, sessReused                       int64
	admitted, rejected, allocWaits, budgetWaitNs int64
	scanned, pruned, keysetPruned                int64
	sharedPasses, attached, catchUp              int64
	compactions, compactNs, moved, reclaimed     int64
	groupsAborted, bailouts                      int64
	arenaLeases, arenaReuses                     int64
	gcCycles, gcPauseNs, allocBytes              uint64
}

func (a snapshot) minus(b snapshot) delta {
	d := delta{
		requests:      a.st.Serve.Requests - b.st.Serve.Requests,
		admitWaitNs:   a.st.Serve.AdmitWaitNanos - b.st.Serve.AdmitWaitNanos,
		saturated:     a.st.Serve.Saturated - b.st.Serve.Saturated,
		canceled:      a.st.Serve.Canceled - b.st.Serve.Canceled,
		sessLeased:    a.st.SessionsLeased - b.st.SessionsLeased,
		sessReused:    a.st.SessionsReused - b.st.SessionsReused,
		admitted:      a.st.QueriesAdmitted - b.st.QueriesAdmitted,
		rejected:      a.st.QueriesRejected - b.st.QueriesRejected,
		allocWaits:    a.st.AllocWaits - b.st.AllocWaits,
		budgetWaitNs:  a.st.BudgetWaitNanos - b.st.BudgetWaitNanos,
		scanned:       a.st.BlocksScanned - b.st.BlocksScanned,
		pruned:        a.st.BlocksPruned - b.st.BlocksPruned,
		keysetPruned:  a.st.KeySetPruned - b.st.KeySetPruned,
		sharedPasses:  a.st.SharedPasses - b.st.SharedPasses,
		attached:      a.st.AttachedQueries - b.st.AttachedQueries,
		catchUp:       a.st.CatchUpBlocks - b.st.CatchUpBlocks,
		compactions:   a.st.Compactions - b.st.Compactions,
		compactNs:     a.st.CompactNanos - b.st.CompactNanos,
		moved:         a.st.ObjectsMoved - b.st.ObjectsMoved,
		reclaimed:     a.st.BytesReclaimed - b.st.BytesReclaimed,
		groupsAborted: a.st.GroupsAborted - b.st.GroupsAborted,
		bailouts:      a.st.RelocBailouts - b.st.RelocBailouts,
		gcCycles:      uint64(a.ms.NumGC - b.ms.NumGC),
		gcPauseNs:     a.ms.PauseTotalNs - b.ms.PauseTotalNs,
		allocBytes:    a.ms.TotalAlloc - b.ms.TotalAlloc,
	}
	for i, p := range a.st.ArenaPools {
		d.arenaLeases += p.Leases - b.st.ArenaPools[i].Leases
		d.arenaReuses += p.Reuses - b.st.ArenaPools[i].Reuses
	}
	return d
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// layerCounters reports the counter deltas of the loaded phase and
// applies the workload self-checks that read them.
func layerCounters(rep *report, wl *workload, loaded *phase, d delta, end snapshot) {
	reqs := max(1, d.requests)
	perReq := func(n int64) float64 { return float64(n) / float64(reqs) }
	note := fmt.Sprintf("loaded phase, %d requests", d.requests)

	rep.set("serve.admit_wait_ms_per_req", perReq(d.admitWaitNs)/1e6, note)
	rep.set("serve.saturated", float64(d.saturated), note)
	rep.set("serve.canceled", float64(d.canceled), note)
	p99, n := percentile(loaded.requests, 99)
	rep.set("serve.client_p99_ms", ms(p99), "n=%d requests", n)
	rep.set("serve.bytes_out_per_req", ratio(loaded.bytesOut, int64(max(1, len(loaded.requests)))), "")

	rep.set("query.admitted", float64(d.admitted), note)
	rep.set("query.rejected", float64(d.rejected), note)
	rep.set("core.session_reuse_ratio", ratio(d.sessReused, d.sessLeased), "%d leases", d.sessLeased)

	prunedFrac := ratio(d.pruned, d.pruned+d.scanned)
	rep.set("mem.blocks_scanned_per_req", perReq(d.scanned), note)
	rep.set("mem.blocks_pruned_per_req", perReq(d.pruned), note)
	rep.set("mem.pruned_frac", prunedFrac, "%d pruned of %d", d.pruned, d.pruned+d.scanned)
	rep.set("mem.keyset_pruned_per_req", perReq(d.keysetPruned), note)
	windows := 0
	for _, st := range wl.script {
		if st.ep == epQ6Window {
			windows++
		}
	}
	rep.set("mem.shared_passes", float64(d.sharedPasses), note)
	rep.set("mem.attach_ratio", ratio(d.attached, int64(windows*loaded.attempted)), "%d of %d q6window requests rode a running pass", d.attached, windows*loaded.attempted)
	rep.set("mem.catchup_blocks", float64(d.catchUp), note)

	busy := float64(d.compactNs) / float64(max(1, loaded.wall.Nanoseconds()))
	rep.set("mem.compactions", float64(d.compactions), "passes in the loaded phase")
	rep.set("mem.compact_busy_frac", busy, "%.0f ms of %.0f ms", float64(d.compactNs)/1e6, ms(loaded.wall))
	rep.set("mem.objects_moved", float64(d.moved), "")
	rep.set("mem.bytes_reclaimed_mb", float64(d.reclaimed)/1e6, "")
	rep.set("mem.groups_aborted", float64(d.groupsAborted), "")
	rep.set("mem.reloc_bailouts", float64(d.bailouts), "")
	rep.set("mem.fragmented_blocks", float64(end.frag.Fragmented), "of %d blocks, end of loaded phase", end.frag.TotalBlocks)
	rep.set("mem.offheap_mb", float64(end.st.Governor.HeapUsed)/1e6, "block heap, end of loaded phase")
	rep.set("mem.alloc_waits", float64(d.allocWaits), "")
	rep.set("mem.budget_wait_ms", float64(d.budgetWaitNs)/1e6, "")

	rep.set("region.arena_leases_per_req", perReq(d.arenaLeases), note)
	rep.set("region.arena_reuse_ratio", ratio(d.arenaReuses, d.arenaLeases), "%d leases", d.arenaLeases)
	rep.set("region.arena_retained_mb", float64(end.st.ArenaRetainedBytes())/1e6, "end of loaded phase")

	rep.set("go.gc_cycles", float64(d.gcCycles), "loaded phase; server and load generator share the heap")
	rep.set("go.gc_pause_total_ms", float64(d.gcPauseNs)/1e6, "")
	rep.set("go.alloc_kb_per_req", float64(d.allocBytes)/1e3/float64(reqs), "")

	switch wl.name {
	case "window_pruned":
		if prunedFrac <= 0.8 {
			rep.shape = append(rep.shape, fmt.Sprintf("mem.pruned_frac = %.3f, want > 0.8: the windows did not prune", prunedFrac))
		}
	case "full_scan":
		if prunedFrac >= 0.02 {
			rep.shape = append(rep.shape, fmt.Sprintf("mem.pruned_frac = %.3f, want < 0.02: the scans were not full", prunedFrac))
		}
	case "churn_mix":
		if d.compactions < 3 {
			rep.shape = append(rep.shape, fmt.Sprintf("mem.compactions = %d, want >= 3: the Maintainer did not keep up with the writer", d.compactions))
		}
	}
}

// layerWriter reports the churn writer's refresh pairs; rf is nil, and
// every number 0, in a workload without one.
func layerWriter(rep *report, rf *refresher) {
	if rf == nil {
		rf = &refresher{}
	}
	p50, n := percentile(rf.pairs, 50)
	rep.set("load.refresh_p50_ms", ms(p50), "n=%d pairs of %d adds + %d removes, from each pair's due time", n, rf.pairRows, rf.runLen()*4/5)
	rep.set("core.add_ns_per_row", float64(rf.addDur.Nanoseconds())/float64(max(1, rf.added)), "%d rows", rf.added)
	rep.set("core.remove_ns_per_row", float64(rf.removeDur.Nanoseconds())/float64(max(1, rf.removed)), "%d rows", rf.removed)
	late, n := percentile(rf.late, 95)
	rep.set("load.writer_late_p95_ms", ms(late), "n=%d pairs", n)
	if ms(late) >= 50 {
		rep.shape = append(rep.shape, fmt.Sprintf("load.writer_late_p95_ms = %.1f, want < 50: the writer did not hold its schedule", ms(late)))
	}
}

// layerLadder reports the ladder's self times, checks the ladder
// against the untraced rounds run between its climbs, and runs the
// timed probes.
func layerLadder(rep *report, w *world, wl *workload, pools [][]*request, ld *ladder, budget time.Duration) error {
	n := len(ld.rounds[rungHTTP])
	self, stderr := ld.selfTimes()
	negative := 0
	for g, name := range [numRungs]string{"serve.http_self_ms", "serve.handler_self_ms", "tpch.kernel_self_ms", "serve.encode_ms", "core.scan_skeleton_ms"} {
		rep.set(name, ms(self[g]), "per round, median of n=%d ladders, +-%.3f; %s rung %.3f ms", n, ms(stderr[g]), rungNames[g], ms(median(ld.rounds[g])))
		if self[g] < -2*stderr[g] {
			negative++
		}
	}
	rep.set("trace.negative_self", float64(negative), "rungs whose self time is below zero by more than twice its standard error")
	rep.set("serve.encode_us_per_row", float64(ld.encodeDur.Microseconds())/float64(max(1, ld.rowsOut)), "%d streamed rows", ld.rowsOut)
	untraced := median(ld.plain)
	overhead := 0.0
	if untraced > 0 {
		overhead = float64(median(ld.rounds[rungHTTP]))/float64(untraced) - 1
	}
	rep.set("trace.overhead_frac", overhead, "traced http rung over the untraced rounds between ladders (%.3f ms, n=%d)", ms(untraced), len(ld.plain))

	// The round with the kernel's socket path in it: for a workload served
	// over TCP that is the untraced round; one served in process is sent
	// over TCP here, read as any HTTP client reads.
	tcp, err := untraced, error(nil)
	if wl.pipe {
		cl := newClient(w, false)
		defer cl.close()
		tcp, err = probe(budget/8, func(round int) (time.Duration, error) {
			d, _, err := cl.round(wl, pools, round, 1, false, nil)
			return d, err
		})
		if err != nil {
			return fmt.Errorf("tcp probe: %w", err)
		}
	}
	rep.set("serve.tcp_round_ms", ms(tcp), "one caller, workers=1, loopback TCP")

	for _, ep := range endpoints {
		p50, n := percentile(ld.driver[ep.name], 50)
		rep.set("tpch."+ep.name+"_ms", ms(p50), "n=%d direct calls, workers=1", n)
	}

	speedup, err := probeSpeedup(w, wl, pools, rep.readers, 3*budget/8)
	if err != nil {
		return fmt.Errorf("speedup probe: %w", err)
	}
	rep.set("tpch.speedup_w", speedup, "round's drivers at 1 worker over %d", rep.readers)
	share, err := probeShareSelf(w, wl, pools, budget/4)
	if err != nil {
		return fmt.Errorf("share probe: %w", err)
	}
	rep.set("mem.share_self_ms", ms(share), "shared minus private scan over the round's windows, one rider")
	oc, err := probeOpenClose(w, budget/8)
	if err != nil {
		return fmt.Errorf("open/close probe: %w", err)
	}
	rep.set("query.open_close_us", float64(oc.Nanoseconds())/1e3, "NewCtx + Lease + Close")
	sl, err := probeSessionLease(w, budget/8)
	if err != nil {
		return fmt.Errorf("session probe: %w", err)
	}
	rep.set("core.session_lease_us", float64(sl.Nanoseconds())/1e3, "LeaseSession + ReturnSession")
	return nil
}
