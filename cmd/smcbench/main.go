// Command smcbench regenerates the paper's evaluation figures (§7).
//
// Usage:
//
//	smcbench -fig all            # every figure
//	smcbench -fig 11 -sf 0.05    # one figure at a larger scale factor
//	smcbench -fig 6,7,linq       # a subset
//
// Figures: 6 (reclamation threshold), 7 (allocation throughput),
// 8 (refresh streams), 9 (GC timeouts), 10 (enumeration), 11 (TPC-H vs
// managed), 12 (direct/columnar), 13 (vs column store), linq (LINQ vs
// compiled). Beyond-paper extensions: ext (TPC-H Q7–Q10 across all
// engines), ablation (design-choice ablations), par (parallel scan
// scaling over 1..NumCPU workers; -json writes BENCH_parallel.json),
// joins (parallel join scaling for Q3/Q5/Q7/Q8/Q9/Q10 over the unified
// query-pipeline layer; -json-joins writes BENCH_joins.json), compact
// (parallel compaction: reclamation throughput and Q1/Q6 interference
// over 1..NumCPU move workers; -json-compact writes BENCH_compact.json),
// prune (block-synopsis skip-scan: pruned vs unpruned Q6-style windowed
// scans over selectivity × heap fragmentation; -json-prune writes
// BENCH_prune.json), cluster (synopsis-aware clustered compaction vs
// size-only packing over churn → maintenance cycles plus Q3/Q4/Q10
// cross-edge key-set pruning; -json-cluster writes BENCH_cluster.json),
// serve (the HTTP front door under 1..512 concurrent clients, every
// served sum asserted against the serial oracle; -json-serve writes
// BENCH_serve.json), govern (adaptive memory governance: the served
// q6window path under budgets swept from unbounded down to 0.9x the
// measured working set — zero OOMs, typed 503s only, the degradation
// ladder's trims visible in the counters; -json-govern writes
// BENCH_govern.json).
// JSON output is stamped with GOMAXPROCS, NumCPU and the Go version so
// curves are self-describing.
//
// To profile SMC queries use cmd/profq, which runs one engine in
// isolation: a whole-process profile of a figure is dominated by the
// managed baselines' GC.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
)

func main() {
	var (
		fig         = flag.String("fig", "all", "comma-separated figures: 6,7,8,9,10,11,12,13,linq,ext,ablation,par,joins,compact,prune,cluster,serve,govern or 'all'")
		sf          = flag.Float64("sf", 0.01, "TPC-H scale factor")
		seed        = flag.Uint64("seed", 42, "generator seed")
		reps        = flag.Int("reps", 3, "repetitions per measurement (median)")
		heap        = flag.Bool("heap-backend", false, "force the portable off-heap backend")
		jsonPath    = flag.String("json", "", "write the 'par' figure's result as JSON to this path")
		joinsPath   = flag.String("json-joins", "", "write the 'joins' figure's result as JSON to this path")
		compactPath = flag.String("json-compact", "", "write the 'compact' figure's result as JSON to this path")
		prunePath   = flag.String("json-prune", "", "write the 'prune' figure's result as JSON to this path")
		clusterPath = flag.String("json-cluster", "", "write the 'cluster' figure's result as JSON to this path")
		servePath   = flag.String("json-serve", "", "write the 'serve' figure's result as JSON to this path")
		governPath  = flag.String("json-govern", "", "write the 'govern' figure's result as JSON to this path")
		workers     = flag.String("workers", "", "comma-separated worker counts for the 'par'/'joins'/'compact' figures (default 1,2,4..NumCPU)")
	)
	flag.Parse()

	opts := bench.Options{SF: *sf, Seed: *seed, Reps: *reps, HeapBackend: *heap}
	// -workers applies to the 'par' and 'joins' figures; Figures 7/8 keep
	// their own default thread sweep.
	var parWorkers []int
	if *workers != "" {
		for _, w := range strings.Split(*workers, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(w))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "smcbench: bad -workers entry %q\n", w)
				os.Exit(2)
			}
			parWorkers = append(parWorkers, n)
		}
	}
	allFigs := []string{"6", "7", "8", "9", "10", "11", "12", "13", "linq", "ext", "ablation", "par", "joins", "compact", "prune", "cluster", "serve", "govern"}
	want := map[string]bool{}
	if *fig == "all" {
		for _, f := range allFigs {
			want[f] = true
		}
	} else {
		known := map[string]bool{}
		for _, f := range allFigs {
			known[f] = true
		}
		for _, f := range strings.Split(*fig, ",") {
			f = strings.TrimSpace(f)
			if !known[f] {
				// Exit non-zero instead of silently doing nothing: a typo'd
				// figure name in a CI step must fail the step.
				fmt.Fprintf(os.Stderr, "smcbench: unknown figure %q (valid: %s or 'all')\n", f, strings.Join(allFigs, ","))
				os.Exit(2)
			}
			want[f] = true
		}
	}

	fail := func(name string, err error) {
		fmt.Fprintf(os.Stderr, "smcbench: figure %s: %v\n", name, err)
		os.Exit(1)
	}
	writeJSONFile := func(name, path string, write func(io.Writer) error) {
		f, err := os.Create(path)
		if err != nil {
			fail(name, err)
		}
		if err := write(f); err != nil {
			f.Close()
			fail(name, err)
		}
		if err := f.Close(); err != nil {
			fail(name, err)
		}
		fmt.Printf("wrote %s\n", path)
	}

	fmt.Printf("smcbench: sf=%v seed=%d reps=%d\n", *sf, *seed, *reps)
	if want["6"] {
		r, err := bench.Figure6(opts)
		if err != nil {
			fail("6", err)
		}
		r.Render().Render(os.Stdout)
	}
	if want["7"] {
		r, err := bench.Figure7(opts)
		if err != nil {
			fail("7", err)
		}
		r.Render().Render(os.Stdout)
	}
	if want["8"] {
		r, err := bench.Figure8(opts)
		if err != nil {
			fail("8", err)
		}
		r.Render().Render(os.Stdout)
	}
	if want["9"] {
		r, err := bench.Figure9(opts)
		if err != nil {
			fail("9", err)
		}
		r.Render().Render(os.Stdout)
	}
	if want["10"] {
		r, err := bench.Figure10(opts)
		if err != nil {
			fail("10", err)
		}
		r.Render().Render(os.Stdout)
	}
	if want["11"] {
		r, err := bench.Figure11(opts)
		if err != nil {
			fail("11", err)
		}
		r.Render().Render(os.Stdout)
	}
	if want["12"] {
		r, err := bench.Figure12(opts)
		if err != nil {
			fail("12", err)
		}
		r.Render().Render(os.Stdout)
	}
	if want["13"] {
		r, err := bench.Figure13(opts)
		if err != nil {
			fail("13", err)
		}
		r.Render().Render(os.Stdout)
	}
	if want["linq"] {
		r, err := bench.FigureLinq(opts)
		if err != nil {
			fail("linq", err)
		}
		r.Render().Render(os.Stdout)
	}
	if want["ext"] {
		r, err := bench.FigureExt(opts)
		if err != nil {
			fail("ext", err)
		}
		r.Render().Render(os.Stdout)
	}
	if want["ablation"] {
		r, err := bench.FigureAblation(opts)
		if err != nil {
			fail("ablation", err)
		}
		for _, tbl := range r.Render() {
			tbl.Render(os.Stdout)
		}
	}
	if want["par"] {
		parOpts := opts
		parOpts.Threads = parWorkers
		r, err := bench.FigureParallel(parOpts)
		if err != nil {
			fail("par", err)
		}
		r.Render().Render(os.Stdout)
		if *jsonPath != "" {
			writeJSONFile("par", *jsonPath, r.WriteJSON)
		}
	}
	if want["joins"] {
		joinOpts := opts
		joinOpts.Threads = parWorkers
		r, err := bench.FigureJoins(joinOpts)
		if err != nil {
			fail("joins", err)
		}
		r.Render().Render(os.Stdout)
		if *joinsPath != "" {
			writeJSONFile("joins", *joinsPath, r.WriteJSON)
		}
	}
	if want["compact"] {
		compactOpts := opts
		compactOpts.Threads = parWorkers
		r, err := bench.FigureCompact(compactOpts)
		if err != nil {
			fail("compact", err)
		}
		r.Render().Render(os.Stdout)
		if *compactPath != "" {
			writeJSONFile("compact", *compactPath, r.WriteJSON)
		}
	}
	if want["prune"] {
		r, err := bench.FigurePrune(opts)
		if err != nil {
			fail("prune", err)
		}
		r.Render().Render(os.Stdout)
		if *prunePath != "" {
			writeJSONFile("prune", *prunePath, r.WriteJSON)
		}
	}
	if want["cluster"] {
		r, err := bench.FigureCluster(opts)
		if err != nil {
			fail("cluster", err)
		}
		r.Render().Render(os.Stdout)
		if *clusterPath != "" {
			writeJSONFile("cluster", *clusterPath, r.WriteJSON)
		}
	}
	if want["serve"] {
		r, err := bench.FigureServe(opts)
		if err != nil {
			fail("serve", err)
		}
		r.Render().Render(os.Stdout)
		if *servePath != "" {
			writeJSONFile("serve", *servePath, r.WriteJSON)
		}
	}
	if want["govern"] {
		r, err := bench.FigureGovern(opts)
		if err != nil {
			fail("govern", err)
		}
		r.Render().Render(os.Stdout)
		if *governPath != "" {
			writeJSONFile("govern", *governPath, r.WriteJSON)
		}
	}
}
