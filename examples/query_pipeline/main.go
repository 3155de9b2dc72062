// Query pipeline: a custom aggregation — outside the TPC-H benchmark
// suite — built directly on the unified parallel query-pipeline layer
// (internal/query).
//
// The scenario is a web-analytics rollup: page-view events stream into
// a self-managed collection, and a dashboard wants per-page view counts
// and total latency. The pipeline runs the compiled-query shape the
// tpch Par drivers use, with none of their code:
//
//   - a Table stage fans the event scan out over all cores, each worker
//     folding blocks into a private region table in a leased arena;
//   - the workers' tables merge per partition in parallel;
//   - PartitionRows emits the dashboard rows partition-sharded.
//
// The merged rollup is verified against a Go-map oracle maintained at
// insert time, and the runtime stats snapshot shows the arena-pool and
// session-pool traffic the pipeline generated.
package main

import (
	"fmt"
	"log"
	"runtime"
	"sort"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/query"
	"repro/internal/region"
)

// PageView is one analytics event. Tabular: fixed-size fields only, so
// the collection stores it off-heap and scans it at memory speed.
type PageView struct {
	PageID    int64
	UserID    int64
	LatencyUs int64
}

// pageStats is the per-page rollup state; pointer-free, so it lives in
// region tables and vanishes with the arena.
type pageStats struct {
	Views     int64
	LatencyUs int64
}

func main() {
	rt, err := core.NewRuntime(core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()
	s := rt.MustSession()
	defer s.Close()

	events := core.MustCollection[PageView](rt, "pageviews", core.RowIndirect)

	// Ingest a deterministic event stream, keeping a Go-map oracle.
	const n = 200_000
	const pages = 500
	fmt.Printf("ingesting %d page-view events across %d pages...\n", n, pages)
	oracle := make(map[int64]pageStats, pages)
	seed := uint64(1)
	for i := 0; i < n; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		page := int64(seed % pages)
		lat := int64(100 + seed>>32%9900)
		events.MustAdd(s, &PageView{PageID: page, UserID: int64(i % 10_000), LatencyUs: lat})
		st := oracle[page]
		st.Views++
		st.LatencyUs += lat
		oracle[page] = st
	}

	// Compiled-query style: resolve each column's base and stride once
	// per block, scan slot directories with raw pointers.
	sch := events.Schema()
	fPage := sch.MustField("PageID")
	fLat := sch.MustField("LatencyUs")
	kernel := func(_ *core.Session, blk *mem.Block, t *region.PartitionedTable[pageStats]) {
		page, pageStride := blk.Col(fPage)
		lat, latStride := blk.Col(fLat)
		for i := 0; i < blk.Capacity(); i++ {
			if !blk.SlotIsValid(i) {
				continue
			}
			st := t.At(*(*int64)(unsafe.Add(page, uintptr(i)*pageStride)))
			st.Views++
			st.LatencyUs += *(*int64)(unsafe.Add(lat, uintptr(i)*latStride))
		}
	}
	mergeStats := func(dst, src *pageStats) {
		dst.Views += src.Views
		dst.LatencyUs += src.LatencyUs
	}

	type row struct {
		Page  int64
		Stats pageStats
	}
	pool := region.NewArenaPool(nil, 0, 0)
	defer pool.Close()
	rt.RegisterArenaPool("pageview-rollup", pool)

	rollup := func(workers int) ([]row, time.Duration) {
		t0 := time.Now()
		pl := query.New(s, pool, workers)
		defer pl.Close()
		merged, err := query.Table(pl, events, pages, kernel, mergeStats)
		if err != nil {
			log.Fatal(err)
		}
		rows, err := query.PartitionRows(pl, merged, func(pt *region.Table[pageStats], out *[]row) {
			pt.Range(func(k int64, v *pageStats) bool {
				*out = append(*out, row{Page: k, Stats: *v})
				return true
			})
		})
		if err != nil {
			log.Fatal(err)
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].Stats.Views != rows[j].Stats.Views {
				return rows[i].Stats.Views > rows[j].Stats.Views
			}
			return rows[i].Page < rows[j].Page
		})
		return rows, time.Since(t0)
	}

	workers := runtime.NumCPU()
	serialRows, serialD := rollup(1)
	parRows, parD := rollup(workers)
	fmt.Printf("rollup: 1 worker %v, %d workers %v (%.2fx)\n",
		serialD.Round(time.Microsecond), workers, parD.Round(time.Microsecond),
		float64(serialD)/float64(parD))

	// Verify: parallel == serial == oracle.
	if len(parRows) != len(serialRows) || len(parRows) != len(oracle) {
		log.Fatalf("row counts diverge: par=%d serial=%d oracle=%d", len(parRows), len(serialRows), len(oracle))
	}
	for i, r := range parRows {
		if serialRows[i] != r {
			log.Fatalf("parallel row %d diverges from serial: %+v vs %+v", i, r, serialRows[i])
		}
		if oracle[r.Page] != r.Stats {
			log.Fatalf("page %d: pipeline %+v, oracle %+v", r.Page, r.Stats, oracle[r.Page])
		}
	}
	fmt.Println("pipeline rollup identical to serial run and insert-time oracle ✓")

	fmt.Println("\ntop pages by views:")
	for _, r := range parRows[:5] {
		fmt.Printf("  page %3d: %6d views, avg latency %5dus\n",
			r.Page, r.Stats.Views, r.Stats.LatencyUs/r.Stats.Views)
	}

	st := rt.StatsSnapshot()
	fmt.Printf("\nruntime stats: sessions leased=%d (reused=%d)\n", st.SessionsLeased, st.SessionsReused)
	for _, ap := range st.ArenaPools {
		fmt.Printf("  pool %-16s leases=%d reuses=%d retained=%dKiB\n",
			ap.Name, ap.Leases, ap.Reuses, ap.RetainedBytes>>10)
	}
}
