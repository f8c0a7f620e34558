package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// measure is one reported metric value. Samples is how many observations
// the value summarizes (0 when it is a plain count or ratio).
type measure struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	// Thin marks a tail percentile with fewer than minBeyond samples beyond
	// it: reported for diagnosis, too few samples to repeat.
	Thin bool `json:"thin,omitempty"`
}

// runResult is one run of one workload.
type runResult struct {
	Workload  string `json:"workload"`
	Seed      uint64 `json:"seed"`
	Traced    bool   `json:"traced"`
	Reps      int    `json:"reps"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	// Errors holds the first few failure descriptions, for the report.
	Errors  []string           `json:"errors,omitempty"`
	Metrics map[string]measure `json:"metrics"`
}

func newRunResult(workload string, seed uint64, traced bool, reps int) *runResult {
	return &runResult{Workload: workload, Seed: seed, Traced: traced, Reps: reps, Metrics: map[string]measure{}}
}

// maxRecordedErrors bounds runResult.Errors; the counts stay exact.
const maxRecordedErrors = 8

// attempt counts n attempted operations.
func (r *runResult) attempt(n int64) { r.Attempted += n }

// fail counts one failed operation and keeps its description.
func (r *runResult) fail(format string, args ...any) {
	r.failN(1, format, args...)
}

// failN counts n failed operations sharing one description.
func (r *runResult) failN(n int64, format string, args ...any) {
	r.Failed += n
	if len(r.Errors) < maxRecordedErrors {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// set records a metric under its declared unit.
func (r *runResult) set(name string, value float64, samples int) {
	r.Metrics[name] = measure{Value: value, Unit: unitOf(name), Samples: samples}
}

// setTail records the p-th percentile of xs, marked thin when the sample
// does not support a tail that high.
func (r *runResult) setTail(name string, xs []float64, p float64) {
	r.set(name, percentile(xs, p), len(xs))
	if top, ok := supportedTail(len(xs)); !ok || p > top {
		m := r.Metrics[name]
		m.Thin = true
		r.Metrics[name] = m
	}
}

// unitOf looks a metric's unit up in the declaration tables.
func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, userMetrics, layerMetrics} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	panic("bench: undeclared metric " + name)
}

// environment stamps a result file so two files can be told apart.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	OS         string `json:"os"`
}

func stampEnvironment(ctx context.Context) environment {
	env := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
	}
	// A checkout without git (the benchmark driver's) keeps "unknown".
	if out, err := command(ctx, "git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// resultFile is what -out writes and -compare reads: every run made so far
// into that file, with the environment and sizes of the latest.
type resultFile struct {
	Env   environment  `json:"env"`
	Sizes sizes        `json:"sizes"`
	Runs  []*runResult `json:"runs"`
}

func readResultFile(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// appendResults adds runs to the result file at path, creating it if need
// be, so that repeated invocations accumulate one set of runs.
func appendResults(path string, env environment, sz sizes, runs []*runResult) error {
	rf, err := readResultFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		rf, err = &resultFile{}, nil
	}
	if err != nil {
		return err
	}
	rf.Env, rf.Sizes = env, sz
	rf.Runs = append(rf.Runs, runs...)
	raw, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// printRun writes one run's metrics by name with unit and sample count:
// the end-to-end metrics, the user metrics, then (traced runs) the layers.
func printRun(w io.Writer, r *runResult) {
	fmt.Fprintf(w, "\n== %s  seed=%d reps=%d attempted=%d failed=%d\n",
		r.Workload, r.Seed, r.Reps, r.Attempted, r.Failed)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "   FAILED: %s\n", e)
	}
	section := func(title string, defs []metricDef) {
		first := true
		for _, d := range defs {
			m, ok := r.Metrics[d.Name]
			if !ok {
				continue
			}
			if first {
				fmt.Fprintf(w, " %s\n", title)
				first = false
			}
			n := ""
			if m.Samples > 0 {
				n = fmt.Sprintf("  (n=%d)", m.Samples)
			}
			if m.Thin {
				n += "  thin tail: fewer than 10 samples beyond"
			}
			fmt.Fprintf(w, "   %-38s %14.6g %-10s%s\n", d.Name, m.Value, m.Unit, n)
		}
	}
	section("end to end", endToEnd)
	section("user metrics", userMetrics)
	section("per layer", layerMetrics)
}

// contractLine renders the one-line result the benchmark driver parses:
// every end_to_end metric of an untraced run, every per_layer metric of a
// traced one. A layer the workload never enters reads 0.
func contractLine(r *runResult) (string, error) {
	defs := endToEnd
	if r.Traced {
		defs = perLayer()
	}
	metrics := make(map[string]measure, len(defs))
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			if !r.Traced {
				return "", fmt.Errorf("workload %s did not measure %s", r.Workload, d.Name)
			}
			m = measure{Unit: d.Unit}
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return "", fmt.Errorf("workload %s: metric %s is %v", r.Workload, d.Name, m.Value)
		}
		metrics[d.Name] = measure{Value: m.Value, Unit: m.Unit}
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	raw, err := json.Marshal(struct {
		Correct   bool               `json:"correct"`
		Attempted int64              `json:"attempted"`
		Failed    int64              `json:"failed"`
		Metrics   map[string]measure `json:"metrics"`
	}{r.Failed == 0, attempted, r.Failed, metrics})
	return string(raw), err
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
