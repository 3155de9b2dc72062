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

func TestRunRejectsUnknownFigureAndBadWorkers(t *testing.T) {
	for _, args := range [][]string{
		{"-fig", "par"}, // retired: the served benchmark measures it
		{"-fig", "6,nope"},
		{"-fig", "joins", "-workers", "1,0"},
	} {
		var report strings.Builder
		if err := run(args, &report); err == nil {
			t.Fatalf("%v: no error", args)
		}
		if report.Len() != 0 {
			t.Fatalf("%v: printed %q before failing", args, report.String())
		}
	}
}
