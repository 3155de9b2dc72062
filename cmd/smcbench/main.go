// Command smcbench prints the paper's evaluation figures (§7) as text
// reports, plus the beyond-paper figures the served benchmark does not
// carry.
//
// Usage:
//
//	smcbench -fig 11 -sf 0.05           # one figure at a larger scale factor
//	smcbench -fig 6,7,linq > report.txt # a subset, kept as a file
//	smcbench -fig all                   # every figure (minutes)
//
// Paper figures: 6 (reclamation threshold), 7 (allocation throughput),
// 8 (refresh streams), 9 (GC timeouts), 10 (enumeration), 11 (TPC-H vs
// managed), 12 (direct/columnar), 13 (vs column store), linq (LINQ vs
// compiled). Beyond the paper: ablation (design-choice ablations), joins
// (parallel Q3/Q5/Q10 over worker counts), compact (parallel compaction:
// reclamation throughput and Q1/Q6 interference over move workers),
// cluster (clustered vs size-only packing over churn → maintenance
// cycles, plus cross-edge key-set pruning), govern (the served q6window
// path under budgets swept down to 0.9x the working set, finest between
// 1.1x and 0.95x, where the refusal edge lies). -workers sets the worker
// sweep of joins and compact.
//
// A report's first line stamps the scale factor, seed, repetitions,
// CPU count, GOMAXPROCS and Go version. Performance claims about the
// served path are made with benchmark/run.sh (BENCHMARK.json), not with
// these figures. To profile SMC queries use cmd/profq, which runs one
// engine in isolation: a whole-process profile of a figure is dominated
// by the managed baselines' GC.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"repro/internal/bench"
)

// figure is one selectable report.
type figure struct {
	name string
	// sweep marks the figures whose worker counts -workers sets.
	sweep bool
	run   func(bench.Options) ([]*bench.Table, error)
}

// table adapts a figure whose result renders as one table.
func table[R interface{ Render() *bench.Table }](fig func(bench.Options) (R, error)) func(bench.Options) ([]*bench.Table, error) {
	return func(o bench.Options) ([]*bench.Table, error) {
		r, err := fig(o)
		if err != nil {
			return nil, err
		}
		return []*bench.Table{r.Render()}, nil
	}
}

var figures = []figure{
	{name: "6", run: table(bench.Figure6)},
	{name: "7", run: table(bench.Figure7)},
	{name: "8", run: table(bench.Figure8)},
	{name: "9", run: table(bench.Figure9)},
	{name: "10", run: table(bench.Figure10)},
	{name: "11", run: table(bench.Figure11)},
	{name: "12", run: table(bench.Figure12)},
	{name: "13", run: table(bench.Figure13)},
	{name: "linq", run: table(bench.FigureLinq)},
	{name: "ablation", run: func(o bench.Options) ([]*bench.Table, error) {
		r, err := bench.FigureAblation(o)
		if err != nil {
			return nil, err
		}
		return r.Render(), nil
	}},
	{name: "joins", sweep: true, run: table(bench.FigureJoins)},
	{name: "compact", sweep: true, run: table(bench.FigureCompact)},
	{name: "cluster", run: table(bench.FigureCluster)},
	{name: "govern", run: table(bench.FigureGovern)},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "smcbench: %v\n", err)
		os.Exit(1)
	}
}

// run parses args and writes the selected figures' report to w, in
// registry order.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("smcbench", flag.ContinueOnError)
	var (
		fig     = fs.String("fig", "all", "comma-separated figures: "+strings.Join(names(), ",")+" or 'all'")
		sf      = fs.Float64("sf", 0.01, "TPC-H scale factor")
		seed    = fs.Uint64("seed", 42, "generator seed")
		reps    = fs.Int("reps", 3, "repetitions per measurement (median)")
		heap    = fs.Bool("heap-backend", false, "force the portable off-heap backend")
		workers = fs.String("workers", "", "comma-separated worker counts for the joins/compact figures (default 1,2,4..NumCPU)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var sweep []int
	if *workers != "" {
		for _, w := range strings.Split(*workers, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(w))
			if err != nil || n < 1 {
				return fmt.Errorf("bad -workers entry %q", w)
			}
			sweep = append(sweep, n)
		}
	}
	want := map[string]bool{}
	for _, f := range strings.Split(*fig, ",") {
		f = strings.TrimSpace(f)
		if f != "all" && !slices.Contains(names(), f) {
			// A typo'd figure name must fail, not silently print nothing.
			return fmt.Errorf("unknown figure %q (valid: %s or 'all')", f, strings.Join(names(), ","))
		}
		want[f] = true
	}

	fmt.Fprintf(w, "smcbench: sf=%v seed=%d reps=%d num_cpu=%d gomaxprocs=%d go=%s\n",
		*sf, *seed, *reps, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	opts := bench.Options{SF: *sf, Seed: *seed, Reps: *reps, HeapBackend: *heap}
	for _, f := range figures {
		if !want["all"] && !want[f.name] {
			continue
		}
		o := opts
		if f.sweep {
			o.Threads = sweep
		}
		tables, err := f.run(o)
		if err != nil {
			return fmt.Errorf("figure %s: %w", f.name, err)
		}
		for _, t := range tables {
			t.Render(w)
		}
	}
	return nil
}

// names lists the selectable figures in registry order.
func names() []string {
	ns := make([]string, len(figures))
	for i, f := range figures {
		ns[i] = f.name
	}
	return ns
}
