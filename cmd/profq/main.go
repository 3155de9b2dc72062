// Command profq profiles compiled SMC queries: it loads TPC-H into a
// self-managed database and runs one or more queries in a loop under the
// CPU profiler, for feeding `go tool pprof`.
//
// Usage:
//
//	profq -q 3,5 -layout direct -sf 0.05 -dur 5s -o /tmp/q.prof
//
// Queries 1–6 and 10 are available; the layout is one of indirect, direct,
// columnar.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/tpch"
)

func main() {
	var (
		qs     = flag.String("q", "3,5", "comma-separated query numbers (1-6, 10)")
		layout = flag.String("layout", "indirect", "collection layout: indirect, direct, columnar")
		sf     = flag.Float64("sf", 0.02, "TPC-H scale factor")
		dur    = flag.Duration("dur", 3*time.Second, "profiling duration")
		out    = flag.String("o", "/tmp/smcq.prof", "CPU profile output path")
	)
	flag.Parse()

	var l core.Layout
	switch *layout {
	case "indirect":
		l = core.RowIndirect
	case "direct":
		l = core.RowDirect
	case "columnar":
		l = core.Columnar
	default:
		log.Fatalf("profq: unknown layout %q", *layout)
	}

	data := tpch.Generate(*sf, 42)
	rt := core.MustRuntime(core.Options{})
	defer rt.Close()
	s := rt.MustSession()
	defer s.Close()
	sdb, err := tpch.LoadSMC(rt, s, data, l)
	if err != nil {
		log.Fatal(err)
	}
	q := tpch.NewSMCQueries(sdb)
	p := tpch.DefaultParams()

	runners := map[string]func(){
		"1":  func() { q.Q1(s, p) },
		"2":  func() { q.Q2(s, p) },
		"3":  func() { q.Q3(s, p) },
		"4":  func() { q.Q4(s, p) },
		"5":  func() { q.Q5(s, p) },
		"6":  func() { q.Q6(s, p) },
		"10": func() { q.Q10(s, p) },
	}
	var selected []func()
	for _, name := range strings.Split(*qs, ",") {
		name = strings.TrimSpace(name)
		fn, ok := runners[name]
		if !ok {
			log.Fatalf("profq: unknown query %q (want 1-6 or 10)", name)
		}
		selected = append(selected, fn)
	}

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		log.Fatal(err)
	}
	t0 := time.Now()
	iters := 0
	for time.Since(t0) < *dur {
		for _, fn := range selected {
			fn()
		}
		iters++
	}
	pprof.StopCPUProfile()
	fmt.Printf("profq: %d iterations of Q{%s} on %s layout in %v; profile at %s\n",
		iters, *qs, l, time.Since(t0).Round(time.Millisecond), *out)
}
