package main

import (
	"strings"
	"testing"
)

// The whole-paper harness must run end to end at tiny scale and emit
// every experiment header.
func TestRunEmitsAllExperiments(t *testing.T) {
	var b strings.Builder
	if err := run(&b, 54, 1.0, 7, 14, ""); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, id := range []string{
		"table-3", "dataset-c", "figure-4", "figure-5", "figure-6",
		"figure-7", "figure-8", "figure-9", "figure-10", "figure-11",
		"figure-12", "section-2-bands", "section-5-overcooling",
		"table-4", "figure-13", "figure-14", "figure-15", "figure-16",
		"figure-17", "section-9", "section-6-generations",
	} {
		if !strings.Contains(out, "== "+id+" ") {
			t.Errorf("experiment %q missing from harness output", id)
		}
	}
	if strings.Contains(out, "!! experiment failed") {
		t.Errorf("some experiment failed:\n%s", out)
	}
}

// TestRunArchivesData: -figdir exports the plot-ready data beside the
// reports. (Archiving a run's datasets is summitsim's.)
func TestRunArchivesData(t *testing.T) {
	var b strings.Builder
	if err := run(&b, 36, 0.5, 3, 14, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "figure data files exported") {
		t.Error("figure export confirmation missing")
	}
}
