package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"
)

// contract mirrors ../BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclarations holds metrics.go and workloads.go to BENCHMARK.json,
// field by field and in both directions, and to the contract's limits.
func TestDeclarations(t *testing.T) {
	c := readContract(t)
	if n := len(c.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go; want 2..8 and equal", n, len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), workloads.go has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why longer than 200", w.Name)
		}
	}
	if n := len(c.EndToEnd); n < 1 || n > 16 || n != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in metrics.go; want 1..16 and equal", n, len(endToEnd))
	}
	seen := map[string]bool{}
	e2e := map[string]bool{}
	for i, m := range c.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, metrics.go %+v", i, m, d)
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("end-to-end %q: bad or repeated name, or bad unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		seen[m.Name], e2e[m.Name] = true, true
	}
	if !e2e["setup_s"] {
		t.Error("setup_s is not among the end-to-end metrics")
	}
	if n := len(c.PerLayer); n < 1 || n > 128 || n != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in metrics.go; want 1..128 and equal", n, len(perLayer))
	}
	for i, m := range c.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, metrics.go %+v", i, m, d)
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("per-layer %q: bad or repeated name, or bad unit %q", m.Name, m.Unit)
		}
		seen[m.Name] = true
		// Every layer metric says which end-to-end metric it should move,
		// and on which workload.
		if !e2e[d.moves] {
			t.Errorf("per-layer %q moves %q, which is not an end-to-end metric", d.name, d.moves)
		}
		if d.on != "all" && findWorkload(d.on) == nil {
			t.Errorf("per-layer %q names workload %q, which does not exist", d.name, d.on)
		}
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", c.RunSeconds)
	}
}

// TestEveryWorkloadEmitsEveryMetric runs all five workloads in both
// modes at a toy scale and checks that the names emitted are the names
// declared, that every answer was right and that nothing leaked. The
// workload self-checks are about the full-size shape and do not apply.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	c := readContract(t)
	want := map[bool][]string{}
	for _, m := range c.EndToEnd {
		want[false] = append(want[false], m.Name)
	}
	for _, m := range c.PerLayer {
		want[true] = append(want[true], m.Name)
	}
	sort.Strings(want[false])
	sort.Strings(want[true])
	for _, w := range c.Workloads {
		for _, trace := range []bool{false, true} {
			rep, _, err := run(config{workload: w.Name, seed: 7, seconds: 400 * time.Millisecond, trace: trace, sf: 0.002})
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.Name, trace, err)
			}
			res, err := rep.result()
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.Name, trace, err)
			}
			var got []string
			for name, v := range res.Metrics {
				got = append(got, name)
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, name, v.Value)
				}
			}
			sort.Strings(got)
			if len(got) != len(want[trace]) {
				t.Fatalf("%s trace=%t: emitted %d metrics, BENCHMARK.json declares %d", w.Name, trace, len(got), len(want[trace]))
			}
			for i := range got {
				if got[i] != want[trace][i] {
					t.Errorf("%s trace=%t: emitted %q where BENCHMARK.json declares %q", w.Name, trace, got[i], want[trace][i])
				}
			}
			if rep.attempted < 1 || rep.failed != 0 || rep.wrong != 0 {
				t.Errorf("%s trace=%t: %d rounds attempted, %d failed, %d wrong: %v", w.Name, trace, rep.attempted, rep.failed, rep.wrong, rep.errs)
			}
			if len(rep.leaks) != 0 {
				t.Errorf("%s trace=%t: leaks: %v", w.Name, trace, rep.leaks)
			}
		}
	}
}
