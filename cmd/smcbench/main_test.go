package main

import (
	"strings"
	"testing"
)

func TestRunPrintsStampedReport(t *testing.T) {
	var report strings.Builder
	if err := run([]string{"-fig", "6", "-sf", "0.001", "-reps", "1", "-heap-backend"}, &report); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"smcbench: sf=0.001 seed=42 reps=1 num_cpu=", "== Figure 6"} {
		if !strings.Contains(report.String(), want) {
			t.Fatalf("report lacks %q:\n%s", want, report.String())
		}
	}
}

// Retired figures fail as unknown names: the served benchmark measures
// what they reported, and a stale script must not print an empty report.
func TestRunRejectsUnknownFigures(t *testing.T) {
	for _, args := range [][]string{
		{"-fig", "par"},
		{"-fig", "ext"},
		{"-fig", "joins"},
		{"-fig", "compact"},
		{"-fig", "cluster"},
		{"-fig", "6,nope"},
	} {
		var report strings.Builder
		err := run(args, &report)
		if err == nil || !strings.Contains(err.Error(), "unknown figure") {
			t.Fatalf("%v: err = %v, want an unknown-figure error", args, err)
		}
		if report.Len() != 0 {
			t.Fatalf("%v: printed %q before failing", args, report.String())
		}
	}
}
