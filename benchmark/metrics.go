package main

// The names every later change must use. BENCHMARK.json repeats this
// table (name, unit, better, bound); bench_test.go holds the two equal.

// metric declares one reported number.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	bound float64
	// moves and on state, for a per-layer metric, which end-to-end metric
	// it should move and on which workload ("all" = every workload).
	moves, on string
}

// endToEnd are the metrics a caller of the service sees. Every workload
// reports every one of them, and none is ever 0.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "solo_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "loaded_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "loaded_tail_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "loaded_rps", unit: "rounds/s", better: "higher", bound: 0.25},
	{name: "space_amp", unit: "ratio", better: "lower", bound: 0.05},
	{name: "go_heap_mb", unit: "MB", better: "lower", bound: 0.25},
}

// perLayer are the metrics of single layers; the layers are this
// repository's packages, plus the Go runtime and the harness itself.
var perLayer = []metric{
	// serve: the HTTP front door.
	{name: "serve.http_self_ms", unit: "ms", better: "lower", moves: "solo_p50_ms", on: "window_pruned"},
	{name: "serve.handler_self_ms", unit: "ms", better: "lower", moves: "loaded_p50_ms", on: "window_pruned"},
	{name: "serve.encode_ms", unit: "ms", better: "lower", moves: "loaded_p50_ms", on: "join_mix"},
	{name: "serve.encode_us_per_row", unit: "us", better: "lower", moves: "loaded_p50_ms", on: "stream_rows"},
	{name: "serve.bytes_out_per_req", unit: "bytes", better: "lower", moves: "loaded_rps", on: "stream_rows"},
	{name: "serve.admit_wait_ms_per_req", unit: "ms", better: "lower", moves: "loaded_p50_ms", on: "window_pruned"},
	{name: "serve.saturated", unit: "count", better: "lower", moves: "loaded_rps", on: "all"},
	{name: "serve.canceled", unit: "count", better: "lower", moves: "loaded_rps", on: "all"},
	{name: "serve.client_p99_ms", unit: "ms", better: "lower", moves: "loaded_tail_ms", on: "window_pruned"},
	// The round with the kernel's socket path in it. stream_rows is served
	// in process; a change that flushes less often moves this first, and
	// solo_p50_ms only by what the flushes cost outside the kernel.
	{name: "serve.tcp_round_ms", unit: "ms", better: "lower", moves: "solo_p50_ms", on: "stream_rows"},
	// tpch: the compiled query drivers, called directly at workers=1.
	{name: "tpch.q1_ms", unit: "ms", better: "lower", moves: "loaded_p50_ms", on: "full_scan"},
	{name: "tpch.q6_ms", unit: "ms", better: "lower", moves: "loaded_p50_ms", on: "full_scan"},
	{name: "tpch.q6window_ms", unit: "ms", better: "lower", moves: "loaded_p50_ms", on: "full_scan"},
	{name: "tpch.q3_ms", unit: "ms", better: "lower", moves: "loaded_p50_ms", on: "join_mix"},
	{name: "tpch.q10_ms", unit: "ms", better: "lower", moves: "loaded_p50_ms", on: "join_mix"},
	{name: "tpch.q6rows_ms", unit: "ms", better: "lower", moves: "loaded_p50_ms", on: "stream_rows"},
	{name: "tpch.kernel_self_ms", unit: "ms", better: "lower", moves: "loaded_rps", on: "full_scan"},
	{name: "tpch.speedup_w", unit: "ratio", better: "higher", moves: "solo_p50_ms", on: "full_scan"},
	// query: the pipeline layer.
	{name: "query.open_close_us", unit: "us", better: "lower", moves: "loaded_p50_ms", on: "window_pruned"},
	{name: "query.admitted", unit: "count", better: "higher", moves: "loaded_rps", on: "join_mix"},
	{name: "query.rejected", unit: "count", better: "lower", moves: "loaded_rps", on: "join_mix"},
	// core: collections, sessions, the scan skeleton.
	{name: "core.session_lease_us", unit: "us", better: "lower", moves: "loaded_p50_ms", on: "window_pruned"},
	{name: "core.session_reuse_ratio", unit: "ratio", better: "higher", moves: "loaded_p50_ms", on: "window_pruned"},
	{name: "core.scan_skeleton_ms", unit: "ms", better: "lower", moves: "solo_p50_ms", on: "full_scan"},
	{name: "core.add_ns_per_row", unit: "ns", better: "lower", moves: "loaded_tail_ms", on: "churn_mix"},
	{name: "core.remove_ns_per_row", unit: "ns", better: "lower", moves: "loaded_tail_ms", on: "churn_mix"},
	{name: "core.load_rows_per_s", unit: "rows/s", better: "higher", moves: "setup_s", on: "all"},
	// mem: blocks, synopses, the share group, compaction, the budget.
	{name: "mem.blocks_scanned_per_req", unit: "blocks", better: "lower", moves: "loaded_p50_ms", on: "window_pruned"},
	{name: "mem.blocks_pruned_per_req", unit: "blocks", better: "higher", moves: "loaded_p50_ms", on: "window_pruned"},
	{name: "mem.pruned_frac", unit: "ratio", better: "higher", moves: "loaded_p50_ms", on: "churn_mix"},
	{name: "mem.keyset_pruned_per_req", unit: "blocks", better: "higher", moves: "loaded_p50_ms", on: "join_mix"},
	{name: "mem.share_self_ms", unit: "ms", better: "lower", moves: "loaded_p50_ms", on: "window_pruned"},
	{name: "mem.shared_passes", unit: "count", better: "lower", moves: "loaded_rps", on: "full_scan"},
	{name: "mem.attach_ratio", unit: "ratio", better: "higher", moves: "loaded_rps", on: "full_scan"},
	{name: "mem.catchup_blocks", unit: "blocks", better: "lower", moves: "loaded_rps", on: "full_scan"},
	{name: "mem.compactions", unit: "count", better: "lower", moves: "loaded_tail_ms", on: "churn_mix"},
	{name: "mem.compact_busy_frac", unit: "ratio", better: "lower", moves: "loaded_tail_ms", on: "churn_mix"},
	{name: "mem.objects_moved", unit: "count", better: "lower", moves: "loaded_tail_ms", on: "churn_mix"},
	{name: "mem.bytes_reclaimed_mb", unit: "MB", better: "higher", moves: "space_amp", on: "churn_mix"},
	{name: "mem.groups_aborted", unit: "count", better: "lower", moves: "space_amp", on: "churn_mix"},
	{name: "mem.reloc_bailouts", unit: "count", better: "lower", moves: "loaded_tail_ms", on: "churn_mix"},
	{name: "mem.fragmented_blocks", unit: "blocks", better: "lower", moves: "space_amp", on: "churn_mix"},
	{name: "mem.offheap_mb", unit: "MB", better: "lower", moves: "space_amp", on: "churn_mix"},
	{name: "mem.alloc_waits", unit: "count", better: "lower", moves: "loaded_tail_ms", on: "churn_mix"},
	{name: "mem.budget_wait_ms", unit: "ms", better: "lower", moves: "loaded_tail_ms", on: "churn_mix"},
	// region: query-lifetime arenas.
	{name: "region.arena_leases_per_req", unit: "count", better: "lower", moves: "loaded_p50_ms", on: "join_mix"},
	{name: "region.arena_reuse_ratio", unit: "ratio", better: "higher", moves: "loaded_p50_ms", on: "join_mix"},
	{name: "region.arena_retained_mb", unit: "MB", better: "lower", moves: "go_heap_mb", on: "join_mix"},
	// go: the managed runtime under the server (and, in this process,
	// under the load generator too).
	{name: "go.gc_cycles", unit: "count", better: "lower", moves: "loaded_tail_ms", on: "stream_rows"},
	{name: "go.gc_pause_total_ms", unit: "ms", better: "lower", moves: "loaded_tail_ms", on: "stream_rows"},
	{name: "go.alloc_kb_per_req", unit: "KB", better: "lower", moves: "go_heap_mb", on: "join_mix"},
	// The harness's own soundness.
	{name: "trace.overhead_frac", unit: "ratio", better: "lower", moves: "solo_p50_ms", on: "all"},
	{name: "trace.negative_self", unit: "count", better: "lower", moves: "solo_p50_ms", on: "all"},
	// The churn writer. Its pair latency is a caller-visible number, but
	// only churn_mix has one and the end-to-end list holds what every
	// workload reports, so it is kept here.
	{name: "load.refresh_p50_ms", unit: "ms", better: "lower", moves: "loaded_tail_ms", on: "churn_mix"},
	{name: "load.writer_late_p95_ms", unit: "ms", better: "lower", moves: "loaded_tail_ms", on: "churn_mix"},
	{name: "load.failed_frac", unit: "ratio", better: "lower", moves: "loaded_rps", on: "all"},
}
