package main

import (
	"fmt"
	"io"

	"repro/internal/stats"
)

// Verdicts of -compare, per (metric, workload).
const (
	verdictBetter     = "better"
	verdictWithin     = "within"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// compareRow is one line of the comparison: a gated metric on a workload,
// measured over the runs of file A (the base) and file B.
type compareRow struct {
	Metric, Workload, Unit string
	Bound                  float64
	MedianA, MedianB       float64
	SpreadA, SpreadB       float64
	RunsA, RunsB           int
	// Ratio is B's median over A's, the base.
	Ratio   float64
	Verdict string
}

// judge gives the verdict for one metric from both files' values. The
// median may worsen by up to bound. When either side's inter-quartile
// spread is wider than the bound the medians alone decide nothing: the
// verdict is better or worse only if every run of B lies on that side of
// every run of A, and unresolved when the runs interleave.
func judge(a, b []float64, higher bool, bound float64) string {
	ma, mb := stats.Median(a), stats.Median(b)
	worseBy := (mb - ma) / ma // share of the base by which B is worse
	if higher {
		worseBy = -worseBy
	}
	if spread(a) > bound || spread(b) > bound {
		switch {
		case separated(a, b, higher):
			return verdictBetter
		case separated(b, a, higher):
			return verdictWorse
		}
		return verdictUnresolved
	}
	switch {
	case worseBy > bound:
		return verdictWorse
	case worseBy < -bound:
		return verdictBetter
	}
	return verdictWithin
}

// separated reports whether every value of b is better than every value of
// a.
func separated(a, b []float64, higher bool) bool {
	sa, sb := sorted(a), sorted(b)
	if higher {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// valuesOf collects a metric's values over the runs of one workload.
func valuesOf(rf *resultFile, workload, metric string) []float64 {
	var out []float64
	for _, r := range rf.Runs {
		if r.Workload != workload {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// failureShare is failed over attempted operations across a file's runs of
// one workload.
func failureShare(rf *resultFile, workload string) float64 {
	var attempted, failed int64
	for _, r := range rf.Runs {
		if r.Workload == workload {
			attempted, failed = attempted+r.Attempted, failed+r.Failed
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// compareFiles builds one row per gated (metric, workload) both files
// measured, and lists the workloads whose failure share grew.
func compareFiles(a, b *resultFile) (rows []compareRow, moreFailures []string) {
	gated := append(append([]metricDef(nil), endToEnd...), userMetrics...)
	for _, w := range workloadOrder {
		for _, d := range gated {
			if !d.appliesTo(w) {
				continue
			}
			va, vb := valuesOf(a, w, d.Name), valuesOf(b, w, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := stats.Median(va), stats.Median(vb)
			rows = append(rows, compareRow{
				Metric: d.Name, Workload: w, Unit: d.Unit, Bound: d.Bound,
				MedianA: ma, MedianB: mb, SpreadA: spread(va), SpreadB: spread(vb),
				RunsA: len(va), RunsB: len(vb), Ratio: mb / ma,
				Verdict: judge(va, vb, d.Higher, d.Bound),
			})
		}
		if fa, fb := failureShare(a, w), failureShare(b, w); fb > fa {
			moreFailures = append(moreFailures, fmt.Sprintf("%s: failure share %.3g -> %.3g", w, fa, fb))
		}
	}
	return rows, moreFailures
}

// runCompare prints the comparison of two result files and reports whether
// B is acceptable: no metric worse, no larger failure share.
func runCompare(w io.Writer, pathA, pathB string) (ok bool, err error) {
	a, err := readResultFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A (base): %s  commit %s  %s  %d cpus  %s\n", pathA, a.Env.Commit, a.Env.GoVersion, a.Env.NProc, a.Env.CPUModel)
	fmt.Fprintf(w, "B:        %s  commit %s  %s  %d cpus  %s\n", pathB, b.Env.Commit, b.Env.GoVersion, b.Env.NProc, b.Env.CPUModel)
	if a.Sizes != b.Sizes {
		fmt.Fprintln(w, "warning: the two files were measured with different workload sizes")
	}
	if a.Env.CPUModel != b.Env.CPUModel || a.Env.NProc != b.Env.NProc || a.Env.GoVersion != b.Env.GoVersion {
		fmt.Fprintln(w, "warning: the two files were measured in different environments")
	}
	rows, moreFailures := compareFiles(a, b)
	fmt.Fprintf(w, "\n%-24s %-13s %12s %7s %12s %7s %-9s %6s  %s\n",
		"metric", "workload", "median A", "iqr A", "median B", "iqr B", "unit", "bound", "B/A  verdict")
	ok = true
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %-13s %12.6g %6.1f%% %12.6g %6.1f%% %-9s %5.0f%%  %.3fx of %.6g (n=%d,%d)  %s\n",
			r.Metric, r.Workload, r.MedianA, r.SpreadA*100, r.MedianB, r.SpreadB*100,
			r.Unit, r.Bound*100, r.Ratio, r.MedianA, r.RunsA, r.RunsB, r.Verdict)
		if r.Verdict == verdictWorse {
			ok = false
		}
	}
	for _, f := range moreFailures {
		fmt.Fprintln(w, "more failures:", f)
		ok = false
	}
	if len(rows) == 0 {
		return false, fmt.Errorf("the two files share no measured metric")
	}
	return ok, nil
}
