// Package bench regenerates every figure of the paper's evaluation (§7).
// Each FigureN function runs the corresponding experiment and returns a
// structured result with a text rendering that mirrors the paper's series.
//
// The experiments are sized by scale factor; the paper uses SF=3 on a
// 4-core/16GB machine, while the defaults here are sized for CI-class
// hardware. The shapes (who wins, by what factor, where crossovers fall)
// are the reproduction target, not absolute numbers — see EXPERIMENTS.md.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/tpch"
)

// Options sizes the experiments.
type Options struct {
	// SF is the TPC-H scale factor for query benches (default 0.01).
	SF float64
	// Seed fixes the generator.
	Seed uint64
	// Threads lists the thread counts for Figures 7 and 8.
	Threads []int
	// Reps is the number of repetitions per measurement (median taken).
	Reps int
	// HeapBackend forces the portable off-heap backend.
	HeapBackend bool
}

// WithDefaults fills unset fields.
func (o Options) WithDefaults() Options {
	if o.SF == 0 {
		o.SF = 0.01
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if len(o.Threads) == 0 {
		o.Threads = []int{1, 2, 4}
	}
	if o.Reps == 0 {
		o.Reps = 3
	}
	return o
}

// Meta stamps a figure's machine-readable output with the environment it
// was measured in, so a scaling curve is self-describing: a flat curve
// recorded on a 1-CPU container reads as "1 CPU", not as a regression.
type Meta struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
}

// CurrentMeta captures the measuring environment.
func CurrentMeta() Meta {
	return Meta{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
	}
}

// median runs fn reps times and returns the median duration.
func median(reps int, fn func()) time.Duration {
	times := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		fn()
		times = append(times, time.Since(t0))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[len(times)/2]
}

// medianErr is median over a call that can fail: the first error skips
// the remaining calls and is returned.
func medianErr(reps int, fn func() error) (time.Duration, error) {
	var err error
	d := median(reps, func() {
		if err == nil {
			err = fn()
		}
	})
	return d, err
}

// Table is a printable result grid.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

func ms(d time.Duration) string { return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000) }

func rel(base, d time.Duration) string {
	if base == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f", 100*float64(d)/float64(base))
}

// sessionT abbreviates the session type in measurement helpers.
type sessionT = *core.Session

// queryEnv bundles every loaded engine at one scale factor.
type queryEnv struct {
	data *tpch.Dataset
	mdb  *tpch.ManagedDB
	ddb  *tpch.DictDB

	rtIndirect, rtDirect, rtColumnar    *core.Runtime
	sIndirect, sDirect, sColumnar       *core.Session
	smcIndirect, smcDirect, smcColumnar *tpch.SMCDB
	qIndirect, qDirect, qColumnar       *tpch.SMCQueries
}

func newQueryEnv(o Options) (*queryEnv, error) {
	e := &queryEnv{data: tpch.Generate(o.SF, o.Seed)}
	e.mdb = tpch.LoadManaged(e.data)
	e.ddb = tpch.LoadDict(e.mdb)

	load := func(layout core.Layout) (*core.Runtime, *core.Session, *tpch.SMCDB, *tpch.SMCQueries, error) {
		rt, err := core.NewRuntime(core.Options{HeapBackend: o.HeapBackend})
		if err != nil {
			return nil, nil, nil, nil, err
		}
		s, err := rt.NewSession()
		if err != nil {
			return nil, nil, nil, nil, err
		}
		db, err := tpch.LoadSMC(rt, s, e.data, layout)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		return rt, s, db, tpch.NewSMCQueries(db), nil
	}
	var err error
	if e.rtIndirect, e.sIndirect, e.smcIndirect, e.qIndirect, err = load(core.RowIndirect); err != nil {
		return nil, err
	}
	if e.rtDirect, e.sDirect, e.smcDirect, e.qDirect, err = load(core.RowDirect); err != nil {
		return nil, err
	}
	if e.rtColumnar, e.sColumnar, e.smcColumnar, e.qColumnar, err = load(core.Columnar); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *queryEnv) Close() {
	for _, s := range []*core.Session{e.sIndirect, e.sDirect, e.sColumnar} {
		if s != nil {
			s.Close()
		}
	}
	for _, rt := range []*core.Runtime{e.rtIndirect, e.rtDirect, e.rtColumnar} {
		if rt != nil {
			rt.Close()
		}
	}
}
