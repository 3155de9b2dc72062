// Command benchmark is the repository's served-path benchmark. It boots
// the serving posture of cmd/smcserve in-process (runtime, TPC-H data
// off-heap, background Maintainer, HTTP front door on loopback), drives
// one workload against it over HTTP, checks every answer against a
// serial oracle, and prints the end-to-end metrics (-trace 0) or the
// per-layer metrics (-trace 1) declared in BENCHMARK.json.
//
//	bash benchmark/run.sh --workload window_pruned --seed 1 --seconds 16 --trace 0
//
// See README.md in this directory for what each number means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/tpch"
)

// The shape of a run is fixed here, not by flags, so that two commits
// are measured the same way.
const (
	// scaleFactor 0.05 is about 300k lineitem rows in some 216 blocks of
	// 256 KiB, 70 MB off-heap for the eight tables: well above a core's
	// L2 (4 MB on the host this was sized on), and small enough that
	// three set-ups fit in a run.
	scaleFactor = 0.05
	// maxClients caps the callers (goroutines, connections) and GOMAXPROCS.
	maxClients = 4
	// setupReps is how often a run sets up; setup_s is the median.
	setupReps = 3
	// refreshEvery is the churn writer's open-loop period.
	refreshEvery = 250 * time.Millisecond
	// sliceLen is how long the solo and the loaded phase run, together,
	// before they take their next turn.
	sliceLen = 1500 * time.Millisecond
	// settleWait bounds the wait for the Maintainer to finish compacting
	// what the writer left behind.
	settleWait = 2 * time.Second
)

// commit is stamped by run.sh.
var commit = "unknown"

type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	spans    string
	sf       float64
}

// report is one run's outcome.
type report struct {
	cfg     config
	nproc   int
	procs   int
	readers int
	values  map[string]float64
	// notes holds what stands beside a number: the sample count of a
	// percentile, the parts of a total.
	notes map[string]string
	tally
	// leaks are quiesce failures, shape the workload self-check failures:
	// a run with either did not measure what its name says.
	leaks, shape []string
}

func (r *report) set(name string, v float64, note string, args ...any) {
	r.values[name] = v
	if note != "" {
		r.notes[name] = fmt.Sprintf(note, args...)
	}
}

func (r *report) correct() bool {
	return r.wrong == 0 && len(r.leaks) == 0 && len(r.shape) == 0
}

func main() {
	var cfg config
	var seconds int
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the dataset and the request parameters")
	flag.IntVar(&seconds, "seconds", 16, "measured seconds, shared out over the phases")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, spans off; 1: per-layer metrics from the traced run")
	flag.StringVar(&cfg.spans, "spans", "", "with -trace 1: write the spans to this file at exit (NDJSON)")
	flag.Parse()
	if findWorkload(cfg.workload) == nil || seconds < 1 || trace < 0 || trace > 1 || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "usage: benchmark -workload {%s} [-seed n] [-seconds n] [-trace 0|1] [-spans file]\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	cfg.sf = scaleFactor

	rep, tr, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	if tr != nil && cfg.spans != "" {
		if err := tr.write(cfg.spans); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: spans: %v\n", err)
			os.Exit(1)
		}
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	if !rep.correct() {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i := range workloads {
		names[i] = workloads[i].name
	}
	return names
}

// run makes one run of one workload.
func run(cfg config) (*report, *tracer, error) {
	wl := findWorkload(cfg.workload)
	procs := min(runtime.NumCPU(), maxClients)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	readers := procs
	if wl.churn {
		readers = max(1, procs-1) // the writer takes one thread
	}
	rep := &report{cfg: cfg, nproc: runtime.NumCPU(), procs: procs, readers: readers,
		values: map[string]float64{}, notes: map[string]string{}}

	// Inputs, from the seed alone.
	data := tpch.Generate(cfg.sf, cfg.seed)
	gen := &paramGen{rng: rand.New(rand.NewPCG(cfg.seed, 0x534d43)), dates: shipDates(data, wl.dateOrdered)}
	pools := genPools(wl, gen)

	// Set-up: load, oracles and, under churn, the refresh pool; several
	// times, keeping the last.
	var w *world
	var rf *refresher // nil unless the workload churns
	var setups, loads []time.Duration
	for i := 0; i < setupReps; i++ {
		if w != nil {
			rf.close()
			w.close()
		}
		t0 := time.Now()
		var err error
		if w, err = boot(data); err != nil {
			return nil, nil, err
		}
		defer w.close()
		answer(w, pools)
		if wl.churn {
			// The writer runs from warm-up to the end of the loaded phase,
			// which is -seconds and the round each slice ends on; half as
			// many pairs again is room to spare.
			if rf, err = newRefresher(w, int(cfg.seconds/refreshEvery)*3/2+8); err != nil {
				return nil, nil, err
			}
			defer rf.close()
		}
		setups = append(setups, time.Since(t0))
		loads = append(loads, w.loadDur)
	}
	data, gen = nil, nil
	runtime.GC()
	rep.set("setup_s", median(setups).Seconds(), "median of %d: load, %d oracles, refresh pool under churn; load %.2f s", setupReps, len(pools)*poolSize, median(loads).Seconds())
	rep.set("core.load_rows_per_s", float64(w.loaded)/median(loads).Seconds(), "%d lineitem rows", w.loaded)

	// Phases. The shares of -seconds differ by mode: the traced run gives
	// up the solo phase for the ladder and the probes.
	share := func(f float64) time.Duration { return time.Duration(f * float64(cfg.seconds)) }
	warmDur, soloDur, loadedDur, ladderDur, probeDur := share(0.10), share(0.30), share(0.60), time.Duration(0), time.Duration(0)
	if cfg.trace {
		warmDur, soloDur, loadedDur, ladderDur, probeDur = share(0.10), 0, share(0.30), share(0.45), share(0.15)
	}

	var writerDone chan error
	stopWriter := make(chan struct{})
	if wl.churn {
		writerDone = make(chan error, 1)
		go func() { writerDone <- rf.runWriter(stopWriter, refreshEvery) }()
	}

	rep.add(runPhase(w, wl, pools, 1, 1, 0, wl.churn, warmDur).tally) // warm-up

	// The solo and the loaded phase take turns, a slice at a time, so that
	// each samples the whole run: the host's speed moves for seconds at a
	// time, and a phase run in one piece reports the seconds it drew.
	// The traced run has no solo phase, so its counter deltas are the
	// loaded phase's alone; the untraced run reads them only for the
	// workload self-checks.
	solo, loaded := &phase{}, &phase{}
	before := takeSnapshot(w)
	for left := soloDur + loadedDur; left > 0; left -= sliceLen {
		f := float64(min(left, sliceLen)) / float64(soloDur+loadedDur)
		if soloDur > 0 {
			solo.merge(runPhase(w, wl, pools, 1, readers, solo.attempted, wl.churn, time.Duration(f*float64(soloDur))))
		}
		loaded.merge(runPhase(w, wl, pools, readers, 1, loaded.attempted/readers, wl.churn, time.Duration(f*float64(loadedDur))))
	}
	after := takeSnapshot(w)
	rep.add(solo.tally)
	rep.add(loaded.tally)
	if !cfg.trace {
		p50, n := percentile(solo.rounds, 50)
		rep.set("solo_p50_ms", ms(p50), "n=%d rounds, 1 caller, workers=%d", n, readers)
	}
	if wl.churn {
		close(stopWriter)
		if err := <-writerDone; err != nil {
			rep.shape = append(rep.shape, "writer: "+err.Error())
		}
		// Rows have stopped moving: let compaction finish, then hold every
		// pooled request to the serial answer over the final state.
		settle(w)
		answer(w, pools)
		rep.add(verifyPools(w, wl, pools))
		if got, want := int64(w.db.Lineitems.Len()), int64(w.loaded)+rf.added-rf.removed; got != want {
			rep.leaks = append(rep.leaks, fmt.Sprintf("lineitems: Len %d, want loaded %d + added %d - removed %d", got, w.loaded, rf.added, rf.removed))
		}
	}
	p50, n := percentile(loaded.rounds, 50)
	rep.set("loaded_p50_ms", ms(p50), "n=%d rounds, %d callers, workers=1", n, readers)
	tail, n := percentile(loaded.rounds, wl.tailPct)
	rep.set("loaded_tail_ms", ms(tail), "p%g of n=%d rounds", wl.tailPct, n)
	rep.set("loaded_rps", float64(len(loaded.rounds))/loaded.wall.Seconds(), "%d rounds in %.2f s", len(loaded.rounds), loaded.wall.Seconds())
	d := after.minus(before)
	layerCounters(rep, wl, loaded, d, after)

	var tr *tracer
	if cfg.trace {
		tr = &tracer{}
		ld := runLadder(w, wl, pools, ladderDur, tr)
		rep.add(ld.tally)
		if err := layerLadder(rep, w, wl, pools, ld, probeDur); err != nil {
			return nil, nil, err
		}
	}

	gov := w.rt.StatsSnapshot().Governor
	rep.set("space_amp", float64(gov.GovernedUsed)/float64(w.rawBytes()), "%.1f MB governed over %.1f MB of records", float64(gov.GovernedUsed)/1e6, float64(w.rawBytes())/1e6)

	layerWriter(rep, rf)
	rep.set("load.failed_frac", float64(rep.failed)/float64(max(1, rep.attempted)), "%d of %d rounds", rep.failed, rep.attempted)

	// Quiesce: with the callers gone, the server drained and the
	// Maintainer stopped, everything leased must be back.
	rf.close()
	w.stopServing()
	rep.leaks = append(rep.leaks, quiesceLeaks(w)...)

	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	rep.set("go_heap_mb", float64(m.HeapAlloc)/1e6, "after two forced GCs, %d lineitem rows off-heap", w.db.Lineitems.Len())
	return rep, tr, nil
}

// settle waits for the Maintainer to work off the fragmentation the
// writer left, so that space is measured at rest.
func settle(w *world) {
	deadline := time.Now().Add(settleWait)
	for w.rt.FragmentationSnapshot().MaxContextFragmented >= 2 && time.Now().Before(deadline) {
		time.Sleep(maintainInterval)
	}
}

// verifyPools serves every pooled request once and checks it strictly.
func verifyPools(w *world, wl *workload, pools [][]*request) tally {
	var t tally
	cl := newClient(w, wl.pipe)
	defer cl.close()
	for _, pool := range pools {
		for _, r := range pool {
			t.attempted++
			if _, _, err := cl.do(r, 1, false); err != nil {
				t.fail(err)
			}
		}
	}
	return t
}

// quiesceLeaks reports what is still held after the run.
func quiesceLeaks(w *world) []string {
	var st core.RuntimeStats
	var leaks []string
	// A handler's deferred releases can trail its response by a moment.
	for deadline := time.Now().Add(time.Second); ; time.Sleep(10 * time.Millisecond) {
		st = w.rt.StatsSnapshot()
		leaks = leaks[:0]
		if st.SessionsLeased != st.SessionsReturned {
			leaks = append(leaks, fmt.Sprintf("sessions: %d leased, %d returned", st.SessionsLeased, st.SessionsReturned))
		}
		if st.EpochPins != 0 {
			leaks = append(leaks, fmt.Sprintf("epoch pins: %d", st.EpochPins))
		}
		if st.Serve.InFlight != 0 {
			leaks = append(leaks, fmt.Sprintf("serve in flight: %d", st.Serve.InFlight))
		}
		for _, p := range st.ArenaPools {
			if p.Leases != p.Returns {
				leaks = append(leaks, fmt.Sprintf("arena pool %s: %d leased, %d returned", p.Name, p.Leases, p.Returns))
			}
		}
		if leases, _ := w.arenas.Stats(); leases != w.arenas.Returns() {
			leaks = append(leaks, fmt.Sprintf("benchmark arena pool: %d leased, %d returned", leases, w.arenas.Returns()))
		}
		if len(leaks) == 0 || time.Now().After(deadline) {
			return leaks
		}
	}
}

// line is the machine-readable result, the last line of standard output.
type line struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result assembles the result line from the metrics declared for the
// run's mode; a declared metric that was not measured is an error.
func (r *report) result() (line, error) {
	declared := endToEnd
	if r.cfg.trace {
		declared = perLayer
	}
	res := line{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	for _, m := range declared {
		v, ok := r.values[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = value{Value: v, Unit: m.unit}
	}
	return res, nil
}

// print writes the environment stamp, every metric of the run's mode by
// name with its unit, any failures, and the result line.
func (r *report) print(out io.Writer) error {
	res, err := r.result()
	if err != nil {
		return err
	}
	declared := endToEnd
	if r.cfg.trace {
		declared = perLayer
	}
	fmt.Fprintf(out, "# workload=%s seed=%d seconds=%g trace=%t sf=%g nproc=%d gomaxprocs=%d callers=%d go=%s commit=%s\n",
		r.cfg.workload, r.cfg.seed, r.cfg.seconds.Seconds(), r.cfg.trace, r.cfg.sf, r.nproc, r.procs, r.readers, runtime.Version(), commit)
	for _, m := range declared {
		fmt.Fprintf(out, "%-28s %14.4f %-9s %s\n", m.name, res.Metrics[m.name].Value, m.unit, r.notes[m.name])
	}
	fmt.Fprintf(out, "# rounds attempted=%d failed=%d wrong=%d\n", r.attempted, r.failed, r.wrong)
	for _, e := range r.errs {
		fmt.Fprintf(out, "# FAILED ROUND: %s\n", e)
	}
	for _, e := range r.leaks {
		fmt.Fprintf(out, "# LEAK: %s\n", e)
	}
	for _, e := range r.shape {
		fmt.Fprintf(out, "# SELF-CHECK: %s\n", e)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}
