// Package repro is a Go reproduction of "Self-managed collections:
// Off-heap memory management for scalable query-dominated collections"
// (Nagel, Bierman, Dragojević, Viglas — EDBT 2017).
//
// The public surface lives in internal/core (the self-managed collection
// type) with the supporting subsystems in internal/mem (type-safe manual
// memory management with compaction and overflow rescue), internal/epoch
// (epoch-based reclamation), internal/offheap (GC-invisible memory),
// internal/region (query-intermediate regions) and internal/schema
// (tabular layouts).
//
// # Measurement
//
// One stack measures performance. benchmark/ (its own module, named by
// BENCHMARK.json) boots the served posture and reports end-to-end and
// per-layer metrics for five workloads; scripts/ab.sh (`make
// perf-gate`) runs it on a base revision and on the working tree,
// alternating, and fails when a median moves past its bound.
// cmd/smcbench prints the paper's figures, plus the beyond-paper
// figures the served benchmark does not carry (joins, compact, cluster,
// govern), as text reports; cmd/profq profiles SMC queries in
// isolation.
//
// # Parallel scan engine
//
// Beyond the paper, queries can fan a full-collection scan out over all
// cores. Each layer has one scan entry point carrying the full contract
// (predicate pushdown, cancellation, panic isolation):
// mem.Context.ScanParallelPredCtx (over NewParallelScanPredCtx),
// core.Collection.ParallelBlocksPredCtx, and query.Source for pipeline
// stages; core.ParallelForEachPred, ParallelAggregatePred and
// ParallelGroupBy are typed conveniences over it. The serial
// mem.Context.NewEnumerator / core.Collection.Enumerate walk is the
// unpruned oracle. The block/slot-directory design makes blocks
// independent scan units, so the engine needs exactly one piece of
// shared coordination:
//
//   - One decision pass: a coordinator session snapshots the block order
//     and makes every §5.2 compaction-group pre/post decision exactly
//     once per enumeration — never per worker — pinning pre-state groups
//     and helping moving ones, which yields one resolved block list with
//     exactly-once visitation semantics.
//   - Pinned coordinator epoch: the coordinator's critical section stays
//     at the snapshot epoch (no refresh) until the scan closes, so a
//     compaction planned mid-scan can never reach its moving phase (its
//     epoch waits stall and it aborts harmlessly) and the resolved list
//     stays authoritative.
//   - N worker sessions: each worker runs in its own registered session
//     and critical section, claiming block indices from an atomic cursor
//     (work stealing), folding into per-worker partial accumulators that
//     merge after the scan.
//
// The served benchmark's tpch.speedup_w reports the engine's worker
// scaling.
//
// # Concurrent query-memory subsystem
//
// The paper's §7 unsafe-query optimization — region-allocated
// intermediates discarded wholesale — is rethought for multi-core so
// the reference-join queries scale with cores too:
//
//   - Arena leases: internal/region.ArenaPool replaces the old
//     one-arena-per-query-stream design. Every query (and every scan
//     worker of a parallel join) leases a private arena and returns it
//     when done; the pool recycles arenas under a bounded retained
//     footprint, and Arena.Reset itself decays retained chunks to the
//     previous cycle's working set, so one huge query no longer pins
//     peak memory forever. Concurrent queries on one query object never
//     share mutable region state.
//   - Partitioned region tables: internal/region.PartitionedTable
//     splits the open-addressing region table into hash partitions with
//     a deterministic partition-by-partition MergeInto, so per-worker
//     group/join state merges once, in worker order, after the scan.
//   - Parallel joins: the tpch Q3ParCtx/Q5ParCtx/Q10ParCtx drivers share
//     their per-block join kernels with the serial Q3/Q5/Q10 (exactly as
//     Q1ParCtx/Q6ParCtx do) and ride the parallel scan engine; worker
//     sessions come from a pool keyed by the memory manager
//     (mem.Manager.LeaseSession), so small scans do not pay per-scan
//     session registration. internal/core.ParallelGroupBy exposes the
//     partial-states-then-ordered-merge pattern to typed callers.
//
// # Unified parallel query pipeline
//
// internal/query extracts the fan-out/merge/finish scaffolding those
// drivers repeated into one reusable layer, and upgrades its two serial
// bottlenecks:
//
//   - A Pipeline owns one parallel query's lifecycle: the coordinator
//     session, the worker count, and every arena leased from a
//     region.ArenaPool on the query's behalf (returned wholesale by
//     Close — the §7 region discipline, now scaffolding-free).
//   - Composable stages: Table (fan-out scan building per-worker
//     partitioned region tables), Accum (padded plain accumulators),
//     Rows (block-sharded finishing scans over dimension collections)
//     and PartitionRows (partition-sharded walks of merged state).
//     Stages feed each other: Q4's late-lineitem key table is a first
//     Table stage whose merged result the orders scan probes read-only.
//   - Parallel merge: region.ParallelMergeInto folds worker tables per
//     partition in parallel under a worker-order-deterministic schedule
//     (shard goroutines own disjoint partition sets, each allocating
//     from its own arena), with destination partitions pre-sized so the
//     merge almost never grows. The finishing passes shard too.
//
// All parallel TPC-H drivers — Q1/Q6 (Accum), Q3/Q4/Q5/Q10 (Table
// stages + parallel finish) — are kernel + finish closures over this
// layer, sharing per-block kernels with the serial queries, which
// remain the oracle: results are byte-identical at every worker count. Each query has exactly two paths, the serial
// oracle Qn and the pipeline driver QnParCtx; a driver's error
// (cancellation, budget rejection, a worker panic as mem.ErrWorkerPanic)
// reaches its caller and is never retried on the serial path.
// core.Runtime.StatsSnapshot surfaces the arena-pool lease/retained
// metrics and the mem session-pool hit/miss counters for production
// observability.
//
// The `joins` figure of cmd/smcbench sweeps Q3/Q5/Q10 over 1..NumCPU
// workers. examples/query_pipeline shows a custom (non-TPC-H)
// aggregation on the pipeline.
//
// # Parallel compaction engine and maintenance scheduler
//
// The §5.2 maintenance path got the same treatment as the query side:
// a compaction pass is planned exactly once (one block-order snapshot,
// one decision per compaction group, the freezing and relocation epoch
// waits unchanged and global), and the moving phase then fans the
// per-group work out over worker sessions leased from the manager's
// session pool, claimed through an atomic work-stealing cursor.
// Compaction groups are independent by construction — disjoint source
// blocks, a private target block, per-group query pins and per-group
// abort — so the pin-drain/retry/bail-out protocol runs single-owner on
// whichever worker claimed the group, and readers keep helping or
// bailing relocations exactly as they do against the serial compactor.
// The serial moving phase survives behind workers=1
// (mem.CompactNowWorkers) as the oracle the parallel engine is tested
// against.
//
// On top of it, mem.Maintainer is the runtime's one background thread:
// the §5 "dedicated compaction thread" and the §3.1 overflow-rescue
// thread in one loop. It polls Manager.FragmentationSnapshot and
// triggers a parallel pass once any context can form a group, replacing
// ad-hoc CompactNow calls, and runs the rescue scan once incarnation
// overflow has retired entries or slots. core.Runtime.StatsSnapshot
// surfaces the engine's counters (groups moved/aborted, helped moves,
// bail-outs, bytes reclaimed, pass wall time) next to the session-pool
// and arena-pool metrics.
//
// The `compact` figure of cmd/smcbench sweeps reclamation throughput and
// Q1/Q6 interference over 1..NumCPU move workers.
//
// # Block synopses and predicate pushdown (skip-scan)
//
// Every block can carry per-column min/max synopses (zone maps) for
// columns the collection registers at construction
// (core.Collection.RegisterSynopses; int32/int64/date/decimal). The
// maintenance contract fits the paper's query-dominated bet — pay a
// little on mutation, never on scans:
//
//   - Widen on insert: Publish folds the new row's registered values
//     into its block's bounds with widen-only atomic CAS loops, so
//     concurrent adders need no lock.
//   - Stale-but-sound on remove: a delete leaves bounds untouched — a
//     dead row can make bounds loose, never wrong.
//   - Exact rebuild on compaction: a compaction target starts empty and
//     is filled only by moves, each widening by the moved row's values,
//     so a completed target's bounds are exactly its rows' min/max.
//     Fragmented collections get tighter bounds as the Maintainer runs.
//
// Scan-side, a mem.ScanPredicate (interval constraints per registered
// column, built via Collection.Predicate) is evaluated once per block in
// the parallel scan's coordinator decision pass — pruned blocks never
// enter the resolved block list, so workers and the work-stealing cursor
// never see them; the check sits beside the pass's empty-block fast
// path. Pushdown threads through core.ParallelBlocksPredCtx (and
// the typed ParallelForEachPred / ParallelAggregatePred over it) and the
// query.Where source wrapper for pipeline stages; kernels keep
// evaluating their residual predicates per row, so pruning is an
// optimization, never a semantics change, and the pruned drivers
// (Q1/Q3/Q4/Q6/Q10 ParCtx) stay byte-identical to the unpruned serial
// oracles. The
// allocation path also signals the Maintainer when a context crosses the
// candidate threshold (abandonAllocBlock wake-up), so compaction — and
// with it bounds re-tightening — starts without waiting out a poll tick.
//
// The served benchmark's window_pruned and churn_mix workloads report
// the pruned block fraction (mem.pruned_frac) on a fresh and on a
// churned, continuously compacted heap.
//
// # Clustering & cross-edge pruning
//
// Synopsis pruning decays under churn: upsert-style workloads re-add
// rows into reclaimed slots heap-wide, so every block's widen-only
// bounds creep toward the whole key domain and a compacted heap stops
// skipping. Two mechanisms turn the decay back into a steady-state
// guarantee:
//
//   - Clustered compaction: core.Collection.RegisterClusterKey names a
//     registered synopsis column as the compaction sort key; under
//     Options.CompactionPacking == core.PackCluster the planner sorts
//     candidate blocks by their (stale-but-sound) bound ranges, bins
//     key-adjacent runs into multi-target groups spanning up to 32
//     targets' worth of rows, and the freeze phase deals each group's
//     rows key-sorted across consecutive targets — every rebuilt block
//     is one tight key-quantile slice. The synopsis contract
//     (widen-on-insert, stale-on-remove, exact-on-rebuild) is
//     untouched: clustering only changes which rows land together.
//     Candidacy is synopsis-aware too: balanced churn refills holes in
//     place, so full-but-bounds-stale blocks (span over 8x their fair
//     share of the occupied domain) are rewritten even though their
//     occupancy never crosses the threshold — without this, a single
//     churn cycle after the first pass would erase the guarantee while
//     the planner saw no work. PackSize (first-fit decreasing) stays the
//     default packing (Options.CompactionPacking).
//   - Cross-edge semi-join pruning: the build side's date predicate
//     already decides, block by block, where qualifying dimension rows
//     can live (e.g. Q3's orders before the cut). A query.KeyRanges
//     stage reads no rows: it takes the Key synopsis bounds of exactly
//     the orders blocks that predicate admits and merges them into a
//     mem.KeySetPredicate (sorted disjoint key ranges), and the
//     probe-side scan evaluates it per block against the foreign-key
//     column's bounds — blocks whose key range misses every surviving
//     range are pruned before any worker touches them. It is sound
//     because a pruned orders block holds no qualifying order and an
//     admitted block's bounds cover every key in it (widen-on-insert);
//     it is coarser than the qualifying keys, and costs O(blocks) where
//     nothing prunes. Q3ParCtx/Q10ParCtx ride it, and Q4ParCtx feeds its
//     late-lineitem keys in as single-key ranges; kernels keep their
//     residual probes, so rows stay byte-identical to the serial
//     oracles. Effectiveness tracks key-date correlation (auto-increment
//     OLTP feeds prune, dbgen's random orderkey mapping does not), which
//     the cluster figure models by re-keying orders in date order.
//     StatsSnapshot surfaces SynopsisOverlap (key-set admissions) and
//     KeySetPruned.
//
// The `cluster` figure of cmd/smcbench runs churn cycles against
// clustered vs size-only maintenance — pruned fraction of a
// 1%-selectivity window stays >= 0.90 after one clustered pass — plus
// the Q3/Q4/Q10 cross-edge speedups on a date-correlated heap.
//
// # Serving
//
// internal/serve and cmd/smcserve put an HTTP front door on the
// engine: the query-dominated collection as a service, every layer
// above reachable from curl. Endpoints: POST /query/{q1,q3,q6,
// q6window,q10} take typed JSON params (`{}` selects the TPC-H
// validation defaults; ?workers=N&timeout_ms=M ride the query string),
// POST /query/q6window/rows streams qualifying rows as chunked NDJSON
// with an integrity trailer ({"done":true,"rows":N} — its absence
// means the stream died), GET /queries publishes each endpoint's
// request/response contract, GET /stats serves
// core.Runtime.StatsSnapshot and GET /healthz gates readiness on the
// Maintainer running. Wire contracts are derived from the Go param/
// response structs by internal/schema's JSON-schema deriver at
// registration time — the same derive-from-the-type, fail-at-
// construction move the tabular Schema makes for off-heap layouts —
// and dates/decimals travel as formatted strings, never JSON numbers.
// The same walk compiles each response type's append encoder
// (schema.Compile: fixed offsets, no reflection or allocation per
// value, bytes identical to compact encoding/json), and the row stream
// encodes, writes and flushes once per scanned block's typed batch —
// the result path is compiled like the scan path in front of it.
//
// A request's context flows straight into the engine (query.NewCtx via
// the *ParCtx drivers), so client disconnects and per-request
// deadlines cancel at block-claim granularity. Admission is a
// bounded-wait slot gate in front of the session pool: a full server
// answers 429 (Retry-After) after Config.AdmitWait instead of piling
// goroutines onto LeaseSession, and mem.Governor.Admit fails typed
// within its bounded wait even under a long request deadline. The
// error model maps engine outcomes to statuses: serve.ErrSaturated →
// 429, mem.ErrBudgetExceeded → 503 (both with Retry-After),
// context.DeadlineExceeded → 504, client-canceled → 499, validation →
// 400; every error body is one serve.ErrorEnvelope. The admission
// counters (requests/admitted/saturated/canceled/in-flight) surface
// through StatsSnapshot.Serve, and the storm test plus
// scripts/serve_smoke.sh assert the ledgers balance after canceled and
// rejected requests — a dead client strands no session, arena or
// epoch pin.
//
// benchmark/ drives this front door end to end, every answer checked
// against a serial oracle.
//
// # Memory governance
//
// Runtime.SetMemoryBudget is one byte budget per runtime, beyond the
// paper (whose memory manager has none). mem.Governor, the one type
// that holds the budget and the one registry of arena pools, counts
// three consumers against it: the block heap, retained arenas in the
// registered region pools, and per-block synopses (pinned session
// bytes are reported, not double counted — they live inside the heap
// term). Admission (query.NewCtx via Governor.Admit) gates on that
// governed total; a block reservation gates on the heap alone.
//
// When either finds the budget exceeded, one reclaim pass runs: wake
// the Maintainer, try an epoch advance, drain ripe graves, release
// every idle arena of every registered pool (TrimTo(0)) and close every
// parked session, abandoning its allocation blocks. Then the caller
// waits, bounded (100 ms for a block, 250 ms for an admission, less
// when its context expires first; each wake-up re-runs the pass and
// re-checks), and is refused with the typed mem.ErrBudgetExceeded,
// never an OOM. The serve layer answers 503 budget_exceeded with a
// constant Retry-After of 1 s. /stats carries the per-consumer bytes
// and what the passes released (GovernorSnapshot); /healthz stays 200
// {"ok":true} over budget and is 503 only when the Maintainer is down.
// Serve admission is one global gate of Config.MaxConcurrent slots.
// The storm test runs 1000 budget/churn/scan cycles under -race and
// asserts the byte ledgers balance to the block.
//
// The `govern` figure of cmd/smcbench is the evidence that one pass is
// enough: the served q6window path at budgets from unbounded down to
// 0.9x the measured working set, finest between 1.1x and 0.95x. A
// graded remedy (pressure levels, retain bounds lowered and restored, a
// reclaim-rate Retry-After) put the refusal edge at the same step as
// the one pass — admitting at 1.0x, refusing from 0.98x at SF 0.02 —
// with every success matching the serial oracle and every refusal a
// typed 503.
package repro
