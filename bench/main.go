// Command bench is the repository's end-to-end benchmark. It builds
// summitsim, queryd, streamd and optimize, generates its inputs from a
// seed, drives the built binaries as subprocesses over real files,
// loopback HTTP and the TCP telemetry port, checks every output, and prints
// every metric by name with its unit. A traced run additionally times calls
// into each layer's public functions in process. See README.md.
//
// Usage (from the repository root):
//
//	go run ./bench -seed N                          # all five workloads
//	go run ./bench -workload query-dash -seed N     # one workload
//	go run ./bench -seed N -trace spans.json        # traced run, per-layer metrics
//	go run ./bench -seed N -count 10 -out A.json    # a set of ten runs
//	go run ./bench -compare A.json B.json
//	go run ./bench -smoke
//
// With -workload NAME the last line of standard output is the one-line JSON
// result BENCHMARK.json's contract describes.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// buildDir holds the built binaries and the per-run scratch directories,
// inside the checkout and ignored by git.
const buildDir = ".bench_build"

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    string
	out      string
	count    int
	smoke    bool
	compare  bool
	args     []string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run: all, or one of twin-archive, whatif-sweep, query-scan, query-dash, live-ingest")
	flag.Uint64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.IntVar(&o.seconds, "seconds", nominalSeconds, "nominal measured time per workload; scales the repetition count, never the operation list")
	flag.StringVar(&o.trace, "trace", "0", "0: end-to-end metrics only; 1: also the per-layer replay; FILE: the same, writing the spans to FILE")
	flag.StringVar(&o.out, "out", "", "append the runs to this JSON result file (read by -compare)")
	flag.IntVar(&o.count, "count", 1, "run every selected workload this many times with the same seed: one set of runs for -compare")
	flag.BoolVar(&o.smoke, "smoke", false, "run at about a twentieth of the size, to exercise the harness")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: -compare A.json B.json")
	flag.Parse()
	o.args = flag.Args()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := realMain(ctx, o, os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// realMain is main without the process exit, so deferred clean-up (reaping
// subprocesses, removing the scratch directory) always runs.
func realMain(ctx context.Context, o options, stdout, stderr io.Writer) int {
	if o.compare {
		if len(o.args) != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare A.json B.json")
			return 2
		}
		ok, err := runCompare(stdout, o.args[0], o.args[1])
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}
	results, err := runBenchmark(ctx, o, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	for _, r := range results {
		if r.Failed > 0 {
			return 1
		}
	}
	return 0
}

// repsFor scales the repetition count with -seconds: the operation list of
// a repetition is fixed, so measuring longer means repeating it more often.
func repsFor(seconds, nominalReps int) int {
	reps := int(math.Round(float64(seconds) * float64(nominalReps) / nominalSeconds))
	if reps < 2 {
		reps = 2
	}
	return reps
}

// runBenchmark builds the binaries, runs the selected workloads and prints
// their metrics. With a single workload the last line printed is the
// contract's JSON result.
func runBenchmark(ctx context.Context, o options, stdout, stderr io.Writer) ([]*runResult, error) {
	workloads := workloadOrder
	if o.workload != "all" {
		if _, ok := workloadBinaries[o.workload]; !ok {
			return nil, fmt.Errorf("unknown workload %q", o.workload)
		}
		workloads = []string{o.workload}
	}
	if o.seconds < 1 || o.count < 1 {
		return nil, fmt.Errorf("-seconds and -count must be positive")
	}
	h := &harness{ctx: ctx, sz: fullSizes, traced: o.trace != "0" && o.trace != "", log: stderr}
	if o.smoke {
		h.sz = smokeSizes
	}
	h.reps = repsFor(o.seconds, h.sz.Reps)
	if h.traced {
		h.tracePath = filepath.Join(buildDir, "trace.json")
		if o.trace != "1" {
			h.tracePath = o.trace
		}
		if err := os.MkdirAll(filepath.Dir(h.tracePath), 0o755); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(h.tracePath); err != nil { // spans are appended per workload
			return nil, err
		}
	}

	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	h.bin = filepath.Join(wd, buildDir, "bin")
	needed := map[string]bool{}
	var names []string
	for _, w := range workloads {
		for _, b := range workloadBinaries[w] {
			if !needed[b] {
				needed[b] = true
				names = append(names, b)
			}
		}
	}
	built, err := buildBinaries(ctx, h.bin, names...)
	if err != nil {
		return nil, err
	}
	h.buildS = built.Seconds()
	h.logf("built %v in %.2fs", names, h.buildS)
	if h.work, err = os.MkdirTemp(filepath.Join(wd, buildDir), "run-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(h.work)

	env := stampEnvironment(ctx)
	fmt.Fprintf(stdout, "bench: commit %s  %s  nproc %d  GOMAXPROCS %d  %s\n",
		env.Commit, env.GoVersion, env.NProc, env.GOMAXPROCS, env.CPUModel)
	fmt.Fprintf(stdout, "bench: seed %d  reps %d  sizes %+v\n", o.seed, h.reps, h.sz)
	var results []*runResult
	for i := 0; i < o.count; i++ {
		for _, w := range workloads {
			start := time.Now()
			res, err := h.run(w, o.seed)
			if err != nil {
				return nil, err
			}
			h.logf("%s run %d of %d done in %.1fs", w, i+1, o.count, time.Since(start).Seconds())
			printRun(stdout, res)
			results = append(results, res)
		}
	}
	if o.out != "" {
		if err := appendResults(o.out, env, h.sz, results); err != nil {
			return nil, err
		}
	}
	if len(workloads) == 1 {
		line, err := contractLine(results[len(results)-1])
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(stdout, line)
	}
	return results, nil
}
