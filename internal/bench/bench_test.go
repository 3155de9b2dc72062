package bench

import (
	"strings"
	"testing"
	"time"
)

// The figure runners are exercised end-to-end at a tiny scale factor:
// these tests validate experiment plumbing (series present, sane values,
// tables render), not performance.

func tinyOpts() Options {
	return Options{SF: 0.001, Seed: 42, Reps: 1, Threads: []int{1, 2}, HeapBackend: true}
}

func renderOK(t *testing.T, tab *Table) {
	t.Helper()
	var sb strings.Builder
	tab.Render(&sb)
	out := sb.String()
	if !strings.Contains(out, tab.Title) {
		t.Fatalf("render missing title: %s", out)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("table has no rows")
	}
}

func TestFigure6(t *testing.T) {
	r, err := Figure6(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) < 5 {
		t.Fatalf("only %d sweep points", len(r.Points))
	}
	for _, p := range r.Points {
		if p.OpsPerSec <= 0 || p.QueryMs <= 0 || p.MemoryBytes <= 0 {
			t.Fatalf("degenerate point: %+v", p)
		}
	}
	renderOK(t, r.Render())
}

func TestFigure7(t *testing.T) {
	r, err := Figure7(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"pure-alloc", "concurrent-bag", "concurrent-dictionary", "smc"} {
		vals := r.Series[name]
		if len(vals) != 2 {
			t.Fatalf("%s: %d thread points", name, len(vals))
		}
		for _, v := range vals {
			if v <= 0 {
				t.Fatalf("%s: non-positive throughput", name)
			}
		}
	}
	renderOK(t, r.Render())
}

func TestFigure8(t *testing.T) {
	r, err := Figure8(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"list", "concurrent-dictionary", "smc"} {
		if len(r.Series[name]) != 2 {
			t.Fatalf("%s missing thread points", name)
		}
	}
	renderOK(t, r.Render())
}

func TestFigure10(t *testing.T) {
	r, err := Figure10(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range r.Order {
		v, ok := r.Series[name]
		if !ok {
			t.Fatalf("missing series %s", name)
		}
		for i, ms := range v {
			if ms <= 0 {
				t.Fatalf("%s[%d] non-positive", name, i)
			}
		}
	}
	renderOK(t, r.Render())
}

func TestFigure11(t *testing.T) {
	r, err := Figure11(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if r.List[i] <= 0 || r.SMCUnsafe[i] <= 0 {
			t.Fatalf("query %d degenerate", i+1)
		}
	}
	renderOK(t, r.Render())
}

func TestFigure12(t *testing.T) {
	r, err := Figure12(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if r.SMCUnsafe[i] <= 0 || r.SMCDirect[i] <= 0 || r.SMCColumnar[i] <= 0 {
			t.Fatalf("query %d degenerate", i+1)
		}
	}
	renderOK(t, r.Render())
}

func TestFigure13(t *testing.T) {
	r, err := Figure13(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if r.ColStore[i] <= 0 {
			t.Fatalf("column store query %d degenerate", i+1)
		}
	}
	renderOK(t, r.Render())
}

func TestFigureLinq(t *testing.T) {
	r, err := FigureLinq(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	renderOK(t, r.Render())
}

func TestFigure9Short(t *testing.T) {
	if testing.Short() {
		t.Skip("fixed-duration experiment")
	}
	r, err := Figure9(Options{SF: 0.0005, Seed: 42, Reps: 1, HeapBackend: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"managed-interactive", "self-managed-interactive"} {
		if len(r.Series[name]) != len(r.Sizes) {
			t.Fatalf("%s: %d points for %d sizes", name, len(r.Series[name]), len(r.Sizes))
		}
	}
	renderOK(t, r.Render())
}

func TestFigureAblation(t *testing.T) {
	r, err := FigureAblation(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r.CSPerQuery <= 0 || r.CSPerBlock <= 0 || r.CSPerObject <= 0 {
		t.Fatal("critical-section ablation degenerate")
	}
	if r.DerefFast <= 0 || r.DerefFull <= 0 {
		t.Fatal("deref ablation degenerate")
	}
	if r.MarshalCoalesced <= 0 || r.MarshalFieldwise <= 0 {
		t.Fatal("marshal ablation degenerate")
	}
	if r.Q3Region <= 0 || r.Q3HeapMap <= 0 {
		t.Fatal("region ablation degenerate")
	}
	if len(r.BlockSizes) != len(r.ScanByBS) || len(r.BlockSizes) != len(r.LoadByBS) {
		t.Fatal("block-size sweep misaligned")
	}
	for _, tab := range r.Render() {
		renderOK(t, tab)
	}
}

func TestMedian(t *testing.T) {
	calls := 0
	d := median(3, func() { calls++; time.Sleep(time.Millisecond) })
	if calls != 3 {
		t.Fatalf("median ran fn %d times", calls)
	}
	if d < time.Millisecond/2 {
		t.Fatalf("median %v implausibly small", d)
	}
}

// FigureGovern itself fails on an oracle mismatch, an untyped failure or
// a refusal before any reclaim pass freed bytes; this checks every
// level ran.
func TestFigureGovern(t *testing.T) {
	r, err := FigureGovern(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != len(governBudgets) {
		t.Fatalf("got %d levels, want %d", len(r.Points), len(governBudgets))
	}
	if unb := r.Points[0]; unb.Rejected != 0 || unb.P50Ms <= 0 {
		t.Fatalf("unbounded level refused or unmeasured: %+v", unb)
	}
	renderOK(t, r.Render())
}
